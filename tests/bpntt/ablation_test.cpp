// Correctness under every microcode variant: the ablation knobs must never
// change results, only cycle counts.  Each combination runs the full
// in-SRAM NTT against the golden transform on all lanes.
#include <gtest/gtest.h>

#include "bpntt/engine.h"
#include "bpntt/perf_model.h"
#include "common/xoshiro.h"
#include "nttmath/ntt.h"

namespace bpntt::core {
namespace {

struct AblationCase {
  // No padding: gtest prints a parameter's raw bytes into its test ID, and
  // padding bytes would make that ID differ from run to run.
  std::uint32_t fuse_pairs;
  unsigned check_period;
  std::uint32_t reduced;
};

class MicrocodeAblation : public testing::TestWithParam<AblationCase> {};

TEST_P(MicrocodeAblation, FullNttStillBitExact) {
  const auto c = GetParam();
  engine_config cfg;
  cfg.data_rows = 64;
  cfg.cols = 64;
  cfg.microcode.fuse_pairs = c.fuse_pairs;
  cfg.microcode.ripple_check_period = c.check_period;
  cfg.microcode.reduced_iterations = c.reduced;
  ntt_params p;
  p.n = 64;
  p.q = 257;   // 9-bit class modulus on a 16-bit tile: reduction saves 6 iters
  p.k = 16;
  bp_ntt_engine eng(cfg, p);
  common::xoshiro256ss rng(17);

  std::vector<std::vector<u64>> in(eng.lanes());
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    in[lane].resize(p.n);
    for (auto& x : in[lane]) x = rng.below(p.q);
    eng.load_polynomial(lane, in[lane]);
  }
  const auto stats = eng.run_forward();
  EXPECT_EQ(stats.lossless_shift_violations, 0u);
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    auto expect = in[lane];
    math::ntt_forward(expect, *eng.tables());
    ASSERT_EQ(eng.peek_polynomial(lane, p.n), expect) << "lane " << lane;
  }
  // And back.
  eng.run_inverse();
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    ASSERT_EQ(eng.peek_polynomial(lane, p.n), in[lane]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKnobCombos, MicrocodeAblation,
    testing::Values(AblationCase{true, 1, false}, AblationCase{true, 2, false},
                    AblationCase{true, 4, false}, AblationCase{false, 1, false},
                    AblationCase{false, 2, false}, AblationCase{true, 1, true},
                    AblationCase{true, 2, true}, AblationCase{false, 1, true},
                    AblationCase{false, 2, true}),
    [](const auto& info) {
      return std::string(info.param.fuse_pairs ? "fused" : "unfused") + "_p" +
             std::to_string(info.param.check_period) + (info.param.reduced ? "_red" : "_full");
    });

TEST(MicrocodeAblation, UnfusedCostsMoreCycles) {
  engine_config fused, unfused;
  fused.data_rows = unfused.data_rows = 64;
  fused.cols = unfused.cols = 64;
  unfused.microcode.fuse_pairs = false;
  ntt_params p;
  p.n = 64;
  p.q = 257;
  p.k = 10;
  const auto mf = measure_forward(fused, p);
  const auto mu = measure_forward(unfused, p);
  // Every half-add doubles (pair -> AND+XOR) and ripple gains a copy.
  EXPECT_GT(mu.cycles, mf.cycles * 1.3);
  EXPECT_LT(mu.cycles, mf.cycles * 2.2);
}

TEST(MicrocodeAblation, ReducedIterationsSaveCyclesOnWideTiles) {
  engine_config base, reduced;
  base.data_rows = reduced.data_rows = 64;
  base.cols = reduced.cols = 64;
  reduced.microcode.reduced_iterations = true;
  ntt_params p;
  p.n = 64;
  p.q = 257;  // 10 needed bits on a 16-bit tile
  p.k = 16;
  const auto mb = measure_forward(base, p);
  const auto mr = measure_forward(reduced, p);
  EXPECT_LT(mr.cycles, mb.cycles);
  // Roughly proportional to the iteration ratio 10/16 on the modmul part.
  EXPECT_GT(static_cast<double>(mr.cycles) / mb.cycles, 0.5);
  EXPECT_LT(static_cast<double>(mr.cycles) / mb.cycles, 0.95);
}

TEST(MicrocodeAblation, CheckPeriodTradesChecksForIterations) {
  engine_config p1, p4;
  p1.data_rows = p4.data_rows = 64;
  p1.cols = p4.cols = 64;
  p4.microcode.ripple_check_period = 4;
  ntt_params p;
  p.n = 64;
  p.q = 257;
  p.k = 10;
  const auto m1 = measure_forward(p1, p);
  const auto m4 = measure_forward(p4, p);
  // Fewer zero-tests per ripple but extra no-op iterations: the totals stay
  // within a band rather than diverging.
  const double ratio = static_cast<double>(m4.cycles) / m1.cycles;
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
  EXPECT_LT(m4.cycles - /*checks*/ 0, m1.cycles + m1.cycles / 2);
}

TEST(MicrocodeAblation, PlanCompatibilityEnforced) {
  ntt_params p;
  p.n = 64;
  p.q = 257;
  p.k = 16;
  compile_options reduced;
  reduced.reduced_iterations = true;
  const microcode_compiler comp(p, row_layout{64}, reduced);
  EXPECT_EQ(comp.iterations(), 10u);  // ceil(log2(514))
  const math::ntt_tables t(p.n, p.q, true);
  const auto wrong_plan = make_twiddle_plan(p, t, 16);
  EXPECT_THROW((void)comp.compile_forward(wrong_plan), std::invalid_argument);
  const auto right_plan = make_twiddle_plan(p, t, 10);
  EXPECT_NO_THROW((void)comp.compile_forward(right_plan));
}

TEST(MicrocodeAblation, OptionsValidation) {
  compile_options o;
  o.ripple_check_period = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.ripple_check_period = 9;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.ripple_check_period = 8;
  EXPECT_NO_THROW(o.validate());
}

}  // namespace
}  // namespace bpntt::core
