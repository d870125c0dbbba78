#include "bpntt/perf_model.h"

#include <gtest/gtest.h>

namespace bpntt::core {
namespace {

TEST(PerfModel, MetricsArithmetic) {
  engine_config cfg;  // 256x256 @ 45nm, 3.8 GHz
  const auto m = metrics_from_run(cfg, 256, 16, 16, 235220, 69.4);
  EXPECT_NEAR(m.latency_us, 61.9, 0.1);           // Table I anchor
  EXPECT_NEAR(m.throughput_kntt_s, 258.5, 1.0);
  EXPECT_NEAR(m.area_mm2, 0.063, 0.004);
  EXPECT_NEAR(m.tput_per_mj, 230.5, 1.0);         // 16/69.4 nJ
  EXPECT_NEAR(m.tput_per_area, m.throughput_kntt_s / m.area_mm2, 1e-9);
  EXPECT_NEAR(m.power_mw, 69.4 / 61.9, 0.01);
}

TEST(PerfModel, MeasuredHeadlineConfigurationInPaperBallpark) {
  // Run the real simulator at the paper's headline point and require the
  // measured latency/throughput to land within 40% of Table I (the paper's
  // exact microcode is not published; docs/DESIGN.md §3 documents our
  // reconstruction).
  engine_config cfg;
  ntt_params p;
  p.n = 256;
  p.q = 12289;
  p.k = 16;
  const auto m = measure_forward(cfg, p);
  EXPECT_EQ(m.lanes, 16u);
  EXPECT_GT(m.latency_us, 61.9 * 0.6);
  EXPECT_LT(m.latency_us, 61.9 * 1.4);
  EXPECT_GT(m.tput_per_mj, 230.7 * 0.5);
  EXPECT_LT(m.tput_per_mj, 230.7 * 2.0);
}

TEST(PerfModel, CyclesScaleWithBitwidth) {
  engine_config cfg;
  cfg.data_rows = 64;
  cfg.cols = 64;
  ntt_params p;
  p.n = 64;
  p.q = 0;
  p.k = 8;
  const auto m8 = measure_forward(cfg, p);
  p.k = 16;
  const auto m16 = measure_forward(cfg, p);
  p.k = 32;
  const auto m32 = measure_forward(cfg, p);
  // Fig. 8a: clock count grows with bitwidth (roughly linearly).
  EXPECT_GT(m16.cycles, m8.cycles);
  EXPECT_GT(m32.cycles, m16.cycles);
  const double r1 = static_cast<double>(m16.cycles) / m8.cycles;
  EXPECT_GT(r1, 1.4);
  EXPECT_LT(r1, 2.6);
  // Energy per NTT grows steeper than cycles (parallelism shrinks too).
  const double e8 = m8.energy_nj / m8.lanes;
  const double e16 = m16.energy_nj / m16.lanes;
  EXPECT_GT(e16 / e8, r1);
}

TEST(PerfModel, RemoteButterflyCount) {
  // n = 2 * segment: stage len >= segment pairs rows across the boundary.
  EXPECT_EQ(count_remote_butterflies(8, 8), 0u);
  // n=16, segment=8: len=8 stage pairs j in [0,8) with j+8 -> 8 remote.
  EXPECT_EQ(count_remote_butterflies(16, 8), 8u);
  // All butterflies local when segment covers the whole transform.
  EXPECT_EQ(count_remote_butterflies(1024, 1024), 0u);
  EXPECT_GT(count_remote_butterflies(1024, 256), 0u);
}

TEST(PerfModel, ExtrapolationLosesParallelismAndAddsShifts) {
  engine_config cfg;  // 256 data rows, 256 cols
  const auto m512 = extrapolate_forward(cfg, 512, 16);
  EXPECT_TRUE(m512.extrapolated);
  EXPECT_EQ(m512.lanes, 8u);  // 16 tiles / span 2
  const auto m1024 = extrapolate_forward(cfg, 1024, 16);
  EXPECT_EQ(m1024.lanes, 4u);
  EXPECT_GT(m1024.cycles, m512.cycles);
  // Per-NTT energy rises super-linearly in n (Fig. 8b's steep curve).
  const double e512 = m512.energy_nj / m512.lanes;
  const double e1024 = m1024.energy_nj / m1024.lanes;
  EXPECT_GT(e1024, 2.0 * e512);
}

TEST(PerfModel, ExtrapolationRejectsFittingConfigs) {
  engine_config cfg;
  EXPECT_THROW((void)extrapolate_forward(cfg, 256, 16), std::invalid_argument);
  EXPECT_THROW((void)extrapolate_forward(cfg, 8192, 16), std::invalid_argument);  // 32 tiles > 16
}

TEST(PerfModel, SyntheticAndRealCycleCountsAgree) {
  // Synthetic twiddles must be performance-representative: compare against
  // a real modulus at the same (n, k).
  engine_config cfg;
  cfg.data_rows = 64;
  cfg.cols = 64;
  ntt_params real;
  real.n = 64;
  real.q = 257;
  real.k = 10;
  ntt_params synth = real;
  synth.q = 0;
  const auto mr = measure_forward(cfg, real);
  const auto ms = measure_forward(cfg, synth);
  EXPECT_NEAR(static_cast<double>(ms.cycles), static_cast<double>(mr.cycles),
              0.15 * static_cast<double>(mr.cycles));
}

}  // namespace
}  // namespace bpntt::core
