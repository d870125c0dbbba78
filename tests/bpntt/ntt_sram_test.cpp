// End-to-end in-SRAM NTT: the full compiled kernel (every butterfly running
// Algorithm 2 + ripple add/sub on the subarray) against the golden
// transform, across parameter sets and all SIMD lanes — the reproduction of
// the paper's §V-A correctness validation.
#include <gtest/gtest.h>

#include "bpntt/engine.h"
#include "common/xoshiro.h"
#include "nttmath/ntt.h"
#include "nttmath/poly.h"

namespace bpntt::core {
namespace {

std::vector<u64> random_poly(u64 n, u64 q, common::xoshiro256ss& rng) {
  std::vector<u64> v(n);
  for (auto& x : v) x = rng.below(q);
  return v;
}

struct SramNttCase {
  // No padding: gtest prints a parameter's raw bytes into its test ID, and
  // padding bytes would make that ID differ from run to run.
  u64 n;
  u64 q;
  unsigned k;
  unsigned data_rows;
  u64 cols;
};

class SramNtt : public testing::TestWithParam<SramNttCase> {};

TEST_P(SramNtt, ForwardMatchesGoldenOnAllLanes) {
  const auto c = GetParam();
  engine_config cfg;
  cfg.data_rows = c.data_rows;
  cfg.cols = c.cols;
  ntt_params p;
  p.n = c.n;
  p.q = c.q;
  p.k = c.k;
  bp_ntt_engine eng(cfg, p);
  common::xoshiro256ss rng(c.n * 131 + c.q);

  std::vector<std::vector<u64>> inputs(eng.lanes());
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    inputs[lane] = random_poly(c.n, c.q, rng);
    eng.load_polynomial(lane, inputs[lane]);
  }
  const auto stats = eng.run_forward();
  EXPECT_EQ(stats.lossless_shift_violations, 0u);
  EXPECT_GT(stats.cycles, 0u);

  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    auto expected = inputs[lane];
    math::ntt_forward(expected, *eng.tables());
    EXPECT_EQ(eng.peek_polynomial(lane, c.n), expected) << "lane " << lane;
  }
}

TEST_P(SramNtt, InverseRestoresInput) {
  const auto c = GetParam();
  engine_config cfg;
  cfg.data_rows = c.data_rows;
  cfg.cols = c.cols;
  ntt_params p;
  p.n = c.n;
  p.q = c.q;
  p.k = c.k;
  bp_ntt_engine eng(cfg, p);
  common::xoshiro256ss rng(c.n * 17 + c.q);

  std::vector<std::vector<u64>> inputs(eng.lanes());
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    inputs[lane] = random_poly(c.n, c.q, rng);
    eng.load_polynomial(lane, inputs[lane]);
  }
  eng.run_forward();
  const auto stats = eng.run_inverse();
  EXPECT_EQ(stats.lossless_shift_violations, 0u);
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    EXPECT_EQ(eng.peek_polynomial(lane, c.n), inputs[lane]) << "lane " << lane;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterSets, SramNtt,
    testing::Values(
        // Small rings on a small array (fast exhaustive-ish coverage).
        SramNttCase{8, 97, 9, 16, 64},
        SramNttCase{16, 97, 8, 32, 64},
        SramNttCase{32, 193, 9, 64, 72},
        SramNttCase{64, 257, 10, 64, 80},
        // Kyber-modulus ring at its maximum negacyclic size.
        SramNttCase{128, 3329, 13, 128, 128},
        // The paper's headline configuration: 256-point, 16 lanes of 16 bits.
        SramNttCase{256, 12289, 16, 256, 256},
        // Round-1 Kyber prime on 14-bit tiles (paper's PQC pairing).
        SramNttCase{256, 7681, 14, 256, 112}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_q" + std::to_string(info.param.q) + "_k" +
             std::to_string(info.param.k);
    });

TEST(SramNtt, PointwiseProductMatchesGolden) {
  // Full in-array polymul layout: A at rows [0,n), B at rows [n,2n).
  const u64 n = 32, q = 193;
  engine_config cfg;
  cfg.data_rows = 64;
  cfg.cols = 72;
  ntt_params p;
  p.n = n;
  p.q = q;
  p.k = 9;
  bp_ntt_engine eng(cfg, p);
  common::xoshiro256ss rng(5);

  std::vector<std::vector<u64>> a(eng.lanes()), b(eng.lanes());
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    a[lane] = random_poly(n, q, rng);
    b[lane] = random_poly(n, q, rng);
    eng.load_polynomial(lane, a[lane], eng.poly_region(0));
    eng.load_polynomial(lane, b[lane], eng.poly_region(static_cast<unsigned>(n)));
  }
  const auto stats = eng.run_pointwise(eng.poly_region(0),
                                       eng.poly_region(static_cast<unsigned>(n)),
                                       eng.poly_region(0), /*scale_b=*/true);
  EXPECT_EQ(stats.lossless_shift_violations, 0u);
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    std::vector<u64> expected(n);
    for (u64 i = 0; i < n; ++i) expected[i] = math::mul_mod(a[lane][i], b[lane][i], q);
    EXPECT_EQ(eng.peek_polynomial(lane, eng.poly_region(0)), expected) << "lane " << lane;
  }
}

TEST(SramNtt, FullNegacyclicPolymulInArray) {
  // NTT(a), NTT(b), pointwise, INTT — the complete convolution pipeline on
  // one subarray, verified against the schoolbook product.
  const u64 n = 32, q = 12289;
  engine_config cfg;
  cfg.data_rows = 64;
  cfg.cols = 64;
  ntt_params p;
  p.n = n;
  p.q = q;
  p.k = 16;
  bp_ntt_engine eng(cfg, p);
  common::xoshiro256ss rng(6);

  std::vector<std::vector<u64>> a(eng.lanes()), b(eng.lanes());
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    a[lane] = random_poly(n, q, rng);
    b[lane] = random_poly(n, q, rng);
    eng.load_polynomial(lane, a[lane], eng.poly_region(0));
    eng.load_polynomial(lane, b[lane], eng.poly_region(static_cast<unsigned>(n)));
  }
  const auto ra = eng.poly_region(0);
  const auto rb = eng.poly_region(static_cast<unsigned>(n));
  eng.run_forward(ra);
  eng.run_forward(rb);
  eng.run_pointwise(ra, rb, ra, /*scale_b=*/true);
  eng.run_inverse(ra);
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    EXPECT_EQ(eng.peek_polynomial(lane, ra),
              math::schoolbook_negacyclic(a[lane], b[lane], q))
        << "lane " << lane;
  }
}

TEST(SramNtt, CumulativeStatsGrowAcrossRuns) {
  const u64 n = 16, q = 97;
  engine_config cfg;
  cfg.data_rows = 16;
  cfg.cols = 32;
  ntt_params p;
  p.n = n;
  p.q = q;
  p.k = 8;
  bp_ntt_engine eng(cfg, p);
  common::xoshiro256ss rng(7);
  eng.load_polynomial(0, random_poly(n, q, rng));
  const auto s1 = eng.run_forward();
  const auto s2 = eng.run_forward();
  EXPECT_GT(s1.cycles, 0u);
  // Same program, different data: cycle counts differ only through the
  // data-dependent ripple loops, staying within a tight band.
  EXPECT_NEAR(static_cast<double>(s2.cycles), static_cast<double>(s1.cycles),
              0.2 * static_cast<double>(s1.cycles));
  EXPECT_GE(eng.cumulative_stats().cycles, s1.cycles + s2.cycles);
}

}  // namespace
}  // namespace bpntt::core
