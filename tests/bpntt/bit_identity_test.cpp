// Bit-identity pin of the cycle-level simulator on the Table I batch.
//
// One fixed-seed batch of 16 forward and 16 inverse 256-point NTTs
// (q = 12289, k = 16, one 256x256 subarray) must reproduce the exact
// op_stats recorded from the bit-loop simulator: cycles, every op class,
// host traffic, lossless-shift violations and the energy sum compared as a
// double.  Any rewrite of the simulator that changes what a micro-op does,
// counts or charges fails here, even when the transform is still correct.
#include <gtest/gtest.h>

#include "bpntt/engine.h"
#include "common/xoshiro.h"
#include "nttmath/ntt.h"

namespace bpntt::core {
namespace {

void expect_stats(const sram::op_stats& got, const sram::op_stats& want) {
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.binary_ops, want.binary_ops);
  EXPECT_EQ(got.pair_ops, want.pair_ops);
  EXPECT_EQ(got.copy_ops, want.copy_ops);
  EXPECT_EQ(got.shift_ops, want.shift_ops);
  EXPECT_EQ(got.check_ops, want.check_ops);
  EXPECT_EQ(got.host_writes, want.host_writes);
  EXPECT_EQ(got.host_reads, want.host_reads);
  EXPECT_EQ(got.lossless_shift_violations, want.lossless_shift_violations);
  EXPECT_EQ(got.energy_pj, want.energy_pj);
}

TEST(SimulatorBitIdentity, TableOneBatchStatsArePinned) {
  ntt_params p;
  p.n = 256;
  p.q = 12289;
  p.k = 16;
  bp_ntt_engine eng(engine_config{}, p);
  ASSERT_EQ(eng.lanes(), 16u);

  common::xoshiro256ss rng(20230710);
  std::vector<std::vector<u64>> in(eng.lanes(), std::vector<u64>(p.n));
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    for (auto& x : in[lane]) x = rng.below(p.q);
    eng.load_polynomial(lane, in[lane]);
  }

  const sram::op_stats fwd = eng.run_forward();
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    auto expect = in[lane];
    math::ntt_forward(expect, *eng.tables());
    ASSERT_EQ(eng.peek_polynomial(lane, p.n), expect) << "lane " << lane;
  }
  const sram::op_stats inv = eng.run_inverse();
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    ASSERT_EQ(eng.read_polynomial(lane, p.n), in[lane]) << "lane " << lane;
  }

  sram::op_stats want_fwd;
  want_fwd.cycles = 297245;
  want_fwd.binary_ops = 43432;
  want_fwd.pair_ops = 108239;
  want_fwd.copy_ops = 23552;
  want_fwd.shift_ops = 62759;
  want_fwd.check_ops = 59263;
  want_fwd.energy_pj = 77354.034400100136;
  expect_stats(fwd, want_fwd);

  sram::op_stats want_inv;
  want_inv.cycles = 345181;
  want_inv.binary_ops = 52822;
  want_inv.pair_ops = 125443;
  want_inv.copy_ops = 29184;
  want_inv.shift_ops = 70829;
  want_inv.check_ops = 66903;
  want_inv.energy_pj = 89978.010880310409;
  expect_stats(inv, want_inv);

  // The engine's cumulative totals add the host traffic: three constant rows, 16 x 256
  // coefficient loads and the 16 x 256 counted readouts above.
  sram::op_stats want_total;
  want_total.cycles = 650621;
  want_total.binary_ops = 96254;
  want_total.pair_ops = 233682;
  want_total.copy_ops = 52736;
  want_total.shift_ops = 133588;
  want_total.check_ops = 126166;
  want_total.host_writes = 4099;
  want_total.host_reads = 4096;
  want_total.energy_pj = 167667.6616803628;
  expect_stats(eng.cumulative_stats(), want_total);
}

}  // namespace
}  // namespace bpntt::core
