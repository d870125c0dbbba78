// In-SRAM execution of Algorithm 2: compile the modular-multiply microcode,
// run it on the subarray simulator, and check every SIMD lane against the
// golden Montgomery product — including the lossless-shift invariants
// (Observations 1 and 2) enforced by the hardware model.
#include <gtest/gtest.h>

#include "bpntt/compiler.h"
#include "bpntt/engine.h"
#include "common/xoshiro.h"
#include "nttmath/modarith.h"
#include "nttmath/montgomery.h"

namespace bpntt::core {
namespace {

struct ModmulCase {
  // No padding: gtest prints a parameter's raw bytes into its test ID, and
  // padding bytes would make that ID differ from run to run.
  u64 q;
  u64 k;
};

class SramModmul : public testing::TestWithParam<ModmulCase> {};

TEST_P(SramModmul, ConstMultiplierMatchesGoldenAcrossLanes) {
  const auto [q, k] = GetParam();
  engine_config cfg;
  cfg.data_rows = 16;
  cfg.cols = 64;
  ntt_params p;
  p.n = 4;
  p.q = 0;  // ring parameters are irrelevant: this drives row-level modmul
  p.k = k;
  twiddle_plan plan;
  plan.m = q;
  plan.mneg = ((1ULL << k) - q) & ((k == 64) ? ~0ULL : ((1ULL << k) - 1));
  microcode_compiler comp(p, row_layout{cfg.data_rows});

  // Need M/MNEG/ONE rows to hold the real modulus: use a raw subarray.
  sram::subarray array(row_layout{cfg.data_rows}.total_rows(),
                       sram::tile_geometry{cfg.cols, static_cast<unsigned>(k)}, sram::tech_45nm());
  const row_layout L{cfg.data_rows};
  const unsigned lanes = array.geometry().num_tiles();
  for (unsigned t = 0; t < lanes; ++t) {
    array.host_write_word(t, L.m_row(), q);
    array.host_write_word(t, L.mneg_row(), (1ULL << k) - q);
    array.host_write_word(t, L.one_row(), 1);
  }

  common::xoshiro256ss rng(q * 31 + k);
  isa::executor exec;
  for (int trial = 0; trial < 20; ++trial) {
    const u64 a = rng.below(q);  // shared "twiddle" multiplier
    std::vector<u64> b(lanes);
    for (unsigned t = 0; t < lanes; ++t) {
      b[t] = rng.below(q);
      array.host_write_word(t, 0, b[t]);  // operand row 0
    }
    const auto prog = comp.compile_modmul_const(plan, /*b_row=*/0, a, /*dst_row=*/1);
    exec.run(prog, array);
    for (unsigned t = 0; t < lanes; ++t) {
      EXPECT_EQ(array.peek_word(t, 1), math::interleaved_montgomery(a, b[t], q, k))
          << "lane " << t << " a=" << a << " b=" << b[t] << " q=" << q << " k=" << k;
    }
    EXPECT_EQ(array.stats().lossless_shift_violations, 0u)
        << "Observation 1/2 violated in-array";
  }
}

TEST_P(SramModmul, DataDrivenMatchesGoldenWithPerLaneMultipliers) {
  const auto [q, k] = GetParam();
  engine_config cfg;
  cfg.data_rows = 16;
  cfg.cols = 64;
  ntt_params p;
  p.n = 4;
  p.q = 0;
  p.k = k;
  microcode_compiler comp(p, row_layout{cfg.data_rows});
  const row_layout L{cfg.data_rows};
  sram::subarray array(L.total_rows(), sram::tile_geometry{cfg.cols, static_cast<unsigned>(k)},
                       sram::tech_45nm());
  const unsigned lanes = array.geometry().num_tiles();
  for (unsigned t = 0; t < lanes; ++t) {
    array.host_write_word(t, L.m_row(), q);
    array.host_write_word(t, L.mneg_row(), (1ULL << k) - q);
    array.host_write_word(t, L.one_row(), 1);
  }

  common::xoshiro256ss rng(q * 77 + k);
  isa::executor exec;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<u64> a(lanes), b(lanes);
    for (unsigned t = 0; t < lanes; ++t) {
      a[t] = rng.below(q);
      b[t] = rng.below(q);
      array.host_write_word(t, 0, a[t]);
      array.host_write_word(t, 1, b[t]);
    }
    exec.run(comp.compile_modmul_data(0, 1, 2), array);
    for (unsigned t = 0; t < lanes; ++t) {
      EXPECT_EQ(array.peek_word(t, 2), math::interleaved_montgomery(a[t], b[t], q, k))
          << "lane " << t;
    }
    EXPECT_EQ(array.stats().lossless_shift_violations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, SramModmul,
    testing::Values(ModmulCase{5, 4}, ModmulCase{23, 6}, ModmulCase{127, 8},
                    ModmulCase{3329, 13}, ModmulCase{3329, 16}, ModmulCase{7681, 14},
                    ModmulCase{12289, 16}, ModmulCase{40961, 17}, ModmulCase{8380417, 24},
                    ModmulCase{2013265921, 32}),
    [](const auto& info) {
      return "q" + std::to_string(info.param.q) + "_k" + std::to_string(info.param.k);
    });

TEST(SramModmul, ExhaustiveTinyModulus) {
  // Every (a, b) pair for q=5, k=4 across all lanes simultaneously.
  const u64 q = 5;
  const unsigned k = 4;
  ntt_params p;
  p.n = 4;
  p.q = 0;
  p.k = k;
  const row_layout L{16};
  microcode_compiler comp(p, L);
  sram::subarray array(L.total_rows(), sram::tile_geometry{64, k}, sram::tech_45nm());
  const unsigned lanes = array.geometry().num_tiles();
  for (unsigned t = 0; t < lanes; ++t) {
    array.host_write_word(t, L.m_row(), q);
    array.host_write_word(t, L.mneg_row(), (1ULL << k) - q);
    array.host_write_word(t, L.one_row(), 1);
  }
  isa::executor exec;
  for (u64 a = 0; a < q; ++a) {
    for (u64 b0 = 0; b0 < q; ++b0) {
      for (unsigned t = 0; t < lanes; ++t) {
        array.host_write_word(t, 0, (b0 + t) % q);  // staggered per lane
      }
      twiddle_plan plan;
      plan.m = q;
      plan.mneg = (1ULL << k) - q;
      exec.run(comp.compile_modmul_const(plan, 0, a, 1), array);
      for (unsigned t = 0; t < lanes; ++t) {
        ASSERT_EQ(array.peek_word(t, 1),
                  math::interleaved_montgomery(a, (b0 + t) % q, q, k));
      }
    }
  }
  EXPECT_EQ(array.stats().lossless_shift_violations, 0u);
}

}  // namespace
}  // namespace bpntt::core
