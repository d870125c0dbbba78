// Failure injection: a stuck-at sense amplifier must surface as a
// golden-model mismatch in the affected lane — and only there.  This is
// the negative control for the whole verification methodology: if faulty
// hardware still "passed", the bit-exact checks elsewhere would be
// meaningless.
#include <gtest/gtest.h>

#include "bpntt/engine.h"
#include "common/xoshiro.h"
#include "nttmath/ntt.h"

namespace bpntt::core {
namespace {

struct run_outcome {
  std::vector<bool> lane_ok;
};

run_outcome run_with_optional_fault(bool inject, unsigned fault_col, bool stuck_value) {
  engine_config cfg;
  cfg.data_rows = 32;
  cfg.cols = 64;
  ntt_params p;
  p.n = 32;
  p.q = 193;
  p.k = 9;
  bp_ntt_engine eng(cfg, p);
  if (inject) eng.mutable_array().inject_stuck_column(fault_col, stuck_value);

  common::xoshiro256ss rng(21);
  std::vector<std::vector<u64>> in(eng.lanes());
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    in[lane].resize(p.n);
    for (auto& x : in[lane]) x = rng.below(p.q);
    eng.load_polynomial(lane, in[lane]);
  }
  eng.run_forward();
  run_outcome out;
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    auto expect = in[lane];
    math::ntt_forward(expect, *eng.tables());
    out.lane_ok.push_back(eng.peek_polynomial(lane, p.n) == expect);
  }
  return out;
}

TEST(FaultInjection, CleanHardwarePassesEverywhere) {
  const auto out = run_with_optional_fault(false, 0, false);
  for (std::size_t lane = 0; lane < out.lane_ok.size(); ++lane) {
    EXPECT_TRUE(out.lane_ok[lane]) << "lane " << lane;
  }
}

TEST(FaultInjection, StuckHighSaHangsTheRippleAndTripsTheWatchdog) {
  // A stuck-at-1 sense amplifier keeps the carry row non-zero forever, so
  // the wired-OR zero test never fires and the data-dependent ripple loops
  // spin: the failure mode is a *hang*, caught by the controller's op
  // budget — a realistic behaviour for this fault class (stuck-at-0 faults
  // instead corrupt data silently; see the tests around this one).
  const row_layout L{8};
  ntt_params p;
  p.n = 4;
  p.q = 0;
  p.k = 9;
  const microcode_compiler comp(p, L);
  sram::subarray arr(L.total_rows(), sram::tile_geometry{36, 9}, sram::tech_45nm());
  for (unsigned t = 0; t < arr.geometry().num_tiles(); ++t) {
    arr.host_write_word(t, L.m_row(), 193);
    arr.host_write_word(t, L.mneg_row(), (1u << 9) - 193);
    arr.host_write_word(t, L.one_row(), 1);
    arr.host_write_word(t, 0, 100);
    arr.host_write_word(t, 1, 150);
  }
  arr.inject_stuck_column(13, true);  // tile 1, bit 4
  const isa::executor guarded(/*max_ops=*/50'000);
  EXPECT_THROW(guarded.run(comp.compile_mod_add(2, 0, 1), arr), std::runtime_error);
}

TEST(FaultInjection, StuckHighSaFailsTheEngineRunInsteadOfHanging) {
  // Through the engine no hand-built executor is involved: every kernel
  // runs under the budget derived from its compiled program, so the same
  // fault on the Table I batch throws after ~0.6 M ops instead of spinning
  // through a 2^32-op default.
  ntt_params p;
  p.n = 256;
  p.q = 12289;
  p.k = 16;
  bp_ntt_engine eng(engine_config{}, p);
  common::xoshiro256ss rng(23);
  std::vector<u64> poly(p.n);
  for (auto& x : poly) x = rng.below(p.q);
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) eng.load_polynomial(lane, poly);
  eng.mutable_array().inject_stuck_column(20, true);  // tile 1, bit 4
  const std::uint64_t before = eng.cumulative_stats().total_array_ops();
  EXPECT_THROW(eng.run_forward(), std::runtime_error);
  EXPECT_LT(eng.cumulative_stats().total_array_ops() - before, 1'000'000u);
}

TEST(FaultInjection, StuckLowSaAlsoDetected) {
  // Column 0 = tile 0 LSB; stuck-0 kills the Montgomery LSB logic there.
  const auto out = run_with_optional_fault(true, 0, false);
  EXPECT_FALSE(out.lane_ok[0]);
  EXPECT_TRUE(out.lane_ok[2]);
}

TEST(FaultInjection, ClearFaultsRestoresCorrectness) {
  engine_config cfg;
  cfg.data_rows = 16;
  cfg.cols = 32;
  ntt_params p;
  p.n = 16;
  p.q = 97;
  p.k = 8;
  bp_ntt_engine eng(cfg, p);
  eng.mutable_array().inject_stuck_column(3, true);
  eng.mutable_array().clear_faults();
  common::xoshiro256ss rng(22);
  std::vector<u64> in(p.n);
  for (auto& x : in) x = rng.below(p.q);
  eng.load_polynomial(0, in);
  eng.run_forward();
  auto expect = in;
  math::ntt_forward(expect, *eng.tables());
  EXPECT_EQ(eng.peek_polynomial(0, p.n), expect);
}

TEST(FaultInjection, OutOfRangeColumnRejected) {
  sram::subarray arr(8, sram::tile_geometry{32, 8}, sram::tech_45nm());
  EXPECT_THROW(arr.inject_stuck_column(32, true), std::out_of_range);
}

}  // namespace
}  // namespace bpntt::core
