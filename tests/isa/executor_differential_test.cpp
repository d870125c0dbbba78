// Differential test of the micro-op executor against a reference
// interpreter that issues one op at a time through subarray::op_*.
//
// The executor runs decoded kernels with its counters in locals and the
// compiler's carry-ripple loop fused into one op; the reference below is
// the plain fetch-dispatch loop.  Both run the same seeded random programs
// on identical arrays, and after every run the test compares every row, the
// predicate latch, the zero flag, the full op_stats (energy as an exact
// double), the run_result, and whether and what each one threw.  Programs
// mix every op variant (all logic functions, pairs, copies under each mask
// with and without inversion, segmented and unsegmented shifts), forward
// branches, ripple loops at periods 1, 2 and 4 (lossless and not, fusable
// and with a branch into the body), stuck-at faults that keep a ripple
// spinning, and op budgets that run out anywhere, mid-ripple included.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/xoshiro.h"
#include "isa/executor.h"

namespace bpntt::isa {
namespace {

using sram::logic_fn;
using sram::shift_dir;
using sram::write_mask;

constexpr unsigned kRows = 12;

// The reference: fetch, dispatch through subarray::op_*, one op at a time.
run_result reference_run(const program& p, sram::subarray& a, std::uint64_t budget) {
  run_result r;
  for (std::size_t pc = 0; pc < p.size();) {
    if (budget-- == 0) throw std::runtime_error("reference: op budget exhausted");
    const micro_op& op = p.ops[pc++];
    if (op.type == op_type::check && op.mode == check_mode::ctrl) {
      ++r.executed_ctrl;
      if (op.ctrl == ctrl_kind::halt) {
        r.halted = true;
        return r;
      }
      const bool taken = op.ctrl == ctrl_kind::jump ||
                         (op.ctrl == ctrl_kind::branch_nonzero && !a.zero_flag()) ||
                         (op.ctrl == ctrl_kind::branch_zero && a.zero_flag());
      if (taken) pc = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(pc) + op.offset);
      continue;
    }
    ++r.executed_ops;
    switch (op.type) {
      case op_type::check:
        if (op.mode == check_mode::predicate) {
          a.op_check_pred(op.src0, op.bit_index);
        } else {
          a.op_check_zero(op.src0);
        }
        break;
      case op_type::unary: a.op_copy(op.dst, op.src0, op.invert, op.mask); break;
      case op_type::shift:
        a.op_shift(op.dst, op.src0, op.dir, op.segmented, op.expect_lossless);
        break;
      case op_type::binary:
        if (op.pair) {
          a.op_pair(op.dst, op.dst + op.s_dst_delta, op.src0, op.src1);
        } else {
          a.op_binary(op.dst, op.src0, op.src1, op.fn);
        }
        break;
    }
  }
  return r;
}

struct outcome {
  run_result result;
  std::optional<std::string> thrown;  // exception type name
};

template <typename Run>
outcome capture(Run&& run) {
  outcome o;
  try {
    o.result = run();
  } catch (const std::exception& e) {
    o.thrown = typeid(e).name();
  }
  return o;
}

void expect_same_state(const sram::subarray& got, const sram::subarray& want,
                       const std::string& where) {
  for (unsigned r = 0; r < got.rows(); ++r) {
    ASSERT_EQ(got.peek(r), want.peek(r)) << where << " row " << r;
  }
  EXPECT_EQ(got.predicate_mask(), want.predicate_mask()) << where;
  EXPECT_EQ(got.zero_flag(), want.zero_flag()) << where;
  const sram::op_stats& g = got.stats();
  const sram::op_stats& w = want.stats();
  EXPECT_EQ(g.cycles, w.cycles) << where;
  EXPECT_EQ(g.binary_ops, w.binary_ops) << where;
  EXPECT_EQ(g.pair_ops, w.pair_ops) << where;
  EXPECT_EQ(g.copy_ops, w.copy_ops) << where;
  EXPECT_EQ(g.shift_ops, w.shift_ops) << where;
  EXPECT_EQ(g.check_ops, w.check_ops) << where;
  EXPECT_EQ(g.host_writes, w.host_writes) << where;
  EXPECT_EQ(g.host_reads, w.host_reads) << where;
  EXPECT_EQ(g.lossless_shift_violations, w.lossless_shift_violations) << where;
  EXPECT_EQ(g.energy_pj, w.energy_pj) << where;
}

// Runs `p` under `budget` on two copies of `start`, through the executor
// and through the reference, and compares everything observable.
void expect_same_run(const program& p, const sram::subarray& start, std::uint64_t budget,
                     const std::string& where) {
  sram::subarray fast = start;
  sram::subarray ref = start;
  const outcome got = capture([&] { return executor(budget).run(p, fast); });
  const outcome want = capture([&] { return reference_run(p, ref, budget); });
  ASSERT_EQ(got.thrown.has_value(), want.thrown.has_value()) << where;
  if (got.thrown) {
    EXPECT_EQ(*got.thrown, *want.thrown) << where;
  } else {
    EXPECT_EQ(got.result.executed_ops, want.result.executed_ops) << where;
    EXPECT_EQ(got.result.executed_ctrl, want.result.executed_ctrl) << where;
    EXPECT_EQ(got.result.halted, want.result.halted) << where;
  }
  expect_same_state(fast, ref, where);
}

struct random_program_maker {
  common::xoshiro256ss& rng;
  unsigned tile_bits;
  program_builder b;

  unsigned below(unsigned n) { return static_cast<unsigned>(rng.below(n)); }
  std::uint16_t any_row() { return static_cast<std::uint16_t>(below(kRows)); }
  // A row within [-4, 3] of `c`, distinct from it.
  std::uint16_t near_row(std::uint16_t c) {
    for (;;) {
      const int s = static_cast<int>(c) + static_cast<int>(below(8)) - 4;
      if (s >= 0 && s < static_cast<int>(kRows) && s != c) return static_cast<std::uint16_t>(s);
    }
  }

  // The compiler's fused ripple (emit_ripple); with `enter_body` a jump
  // lands on the first pair, so the loop must not be fused.
  void ripple(unsigned period, bool lossless, bool enter_body) {
    const std::uint16_t c = any_row();
    const std::uint16_t s = near_row(c);
    std::optional<program_builder::label> into;
    if (enter_body) into = b.reserve_jump();
    const std::size_t start = b.here();
    for (unsigned i = 0; i < period; ++i) {
      b.shift(c, c, shift_dir::left, lossless);
      if (into && i == 0) b.patch_to_here(*into);
      if (below(2) == 0) {
        b.pair(c, s, s, c);
      } else {
        b.pair(c, s, c, s);
      }
    }
    b.check_zero(c);
    b.branch_nonzero_to(start);
  }

  void array_op() {
    switch (below(6)) {
      case 0:
        b.binary(any_row(), any_row(), any_row(), static_cast<logic_fn>(below(4)));
        break;
      case 1: {
        const std::uint16_t c = any_row();
        b.pair(c, near_row(c), any_row(), any_row());
        break;
      }
      case 2:
        b.copy(any_row(), any_row(), below(2) == 1, static_cast<write_mask>(below(3)));
        break;
      case 3: {
        micro_op op = make_shift(any_row(), any_row(), static_cast<shift_dir>(below(2)),
                                 below(2) == 1);
        op.segmented = below(3) != 0;  // a third unsegmented
        b.emit(op);
        break;
      }
      case 4: b.check_pred(any_row(), static_cast<std::uint8_t>(below(tile_bits))); break;
      default: b.check_zero(any_row()); break;
    }
  }

  program make(unsigned length) {
    while (b.here() < length) {
      const unsigned pick = below(20);
      if (pick < 3) {
        ripple(1U << below(3), below(2) == 1, below(4) == 0);
      } else if (pick < 5) {
        // A forward branch over a few ops.
        const unsigned kind = below(3);
        const program_builder::label l = kind == 0   ? b.reserve_jump()
                                         : kind == 1 ? b.reserve_branch_zero()
                                                     : b.reserve_branch_nonzero();
        for (unsigned i = below(4); i > 0; --i) array_op();
        b.patch_to_here(l);
      } else {
        array_op();
      }
    }
    if (below(2) == 0) b.halt();
    return b.take();
  }
};

// A random array state: rows, predicate latch, zero flag, and sometimes
// stuck-at faults.
sram::subarray random_array(sram::tile_geometry geom, common::xoshiro256ss& rng, bool faults) {
  sram::subarray a(kRows, geom, sram::tech_45nm());
  for (unsigned r = 0; r < kRows; ++r) {
    sram::bitrow row(geom.cols);
    for (unsigned c = 0; c < geom.cols; ++c) row.set(c, (rng() & 1U) != 0);
    a.host_write_row(r, row);
  }
  a.op_check_pred(static_cast<unsigned>(rng.below(kRows)),
                  static_cast<unsigned>(rng.below(geom.tile_bits)));
  (void)a.op_check_zero(static_cast<unsigned>(rng.below(kRows)));
  if (faults) {
    for (unsigned i = 1 + static_cast<unsigned>(rng.below(2)); i > 0; --i) {
      a.inject_stuck_column(static_cast<unsigned>(rng.below(geom.cols)), (rng() & 1U) != 0);
    }
  }
  return a;
}

struct geometry_case {
  const char* name;
  sram::tile_geometry geom;
};

void PrintTo(const geometry_case& g, std::ostream* os) { *os << g.name; }

class ExecutorDifferential : public ::testing::TestWithParam<geometry_case> {};

TEST_P(ExecutorDifferential, RandomProgramsMatchReferenceInterpreter) {
  const sram::tile_geometry geom = GetParam().geom;
  common::xoshiro256ss rng(0xE4EC + 64 * geom.cols + geom.tile_bits);
  for (unsigned trial = 0; trial < 60; ++trial) {
    random_program_maker maker{rng, geom.tile_bits, {}};
    const program p = maker.make(40 + static_cast<unsigned>(rng.below(120)));
    const sram::subarray start = random_array(geom, rng, trial % 3 == 0);
    const std::string where = "trial " + std::to_string(trial);

    // How many dispatches the run takes (a stuck-at-1 column can keep a
    // ripple spinning: those runs stop at the cap).
    constexpr std::uint64_t cap = 20'000;
    std::uint64_t dispatches = cap;
    {
      sram::subarray probe = start;
      try {
        const run_result r = reference_run(p, probe, cap);
        dispatches = r.executed_ops + r.executed_ctrl;
      } catch (const std::runtime_error&) {
      }
    }
    expect_same_run(p, start, cap, where + " full budget");
    // Budgets that run out somewhere inside the run, and exactly at its end.
    for (unsigned i = 0; i < 4; ++i) {
      const std::uint64_t budget = rng.below(dispatches + 1);
      expect_same_run(p, start, budget, where + " budget " + std::to_string(budget));
    }
    expect_same_run(p, start, dispatches, where + " exact budget");
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ExecutorDifferential,
    ::testing::Values(
        // Four words per row: the executor's fixed-width loop.
        geometry_case{"cols256_k16", {256, 16}},
        geometry_case{"cols256_k14", {256, 14}},
        geometry_case{"cols256_k22", {256, 22}},
        // Two words, 35 two-bit tiles: the generic-width loop.
        geometry_case{"cols70_k2", {70, 2}}),
    [](const ::testing::TestParamInfo<geometry_case>& info) { return info.param.name; });

TEST(ExecutorBudget, EveryBudgetThroughASpinningRipple) {
  // A stuck-at-1 carry column keeps the ripple from ever exiting; sweep the
  // budget across the prefix and many loop iterations so it runs out at
  // every position inside a ripple iteration, for periods 1, 2 and 4.
  for (const unsigned period : {1U, 2U, 4U}) {
    program_builder b;
    b.pair(1, 0, 0, 2);
    const std::size_t start = b.here();
    for (unsigned i = 0; i < period; ++i) {
      b.shift(1, 1, shift_dir::left, /*expect_lossless=*/true);
      b.pair(1, 0, 0, 1);
    }
    b.check_zero(1);
    b.branch_nonzero_to(start);
    b.halt();
    const program p = b.take();
    ASSERT_LT(decode(p).size(), p.size()) << "the ripple must be fused";

    sram::subarray arr(4, sram::tile_geometry{256, 16}, sram::tech_45nm());
    for (unsigned t = 0; t < 16; ++t) {
      arr.host_write_word(t, 0, 0x7F00 + t);
      arr.host_write_word(t, 2, 0x00FF);
    }
    arr.inject_stuck_column(20, true);
    for (std::uint64_t budget = 0; budget < 12 * (2 * period + 2); ++budget) {
      expect_same_run(p, arr, budget,
                      "period " + std::to_string(period) + " budget " + std::to_string(budget));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ExecutorDecode, FusesTheCompilersRippleUnlessABranchEntersIt) {
  program_builder b;
  const std::size_t loop = b.here();
  b.shift(1, 1, shift_dir::left, true);
  b.pair(1, 0, 0, 1);
  b.check_zero(1);
  b.branch_nonzero_to(loop);
  b.halt();
  const kernel fused = decode(b.take());
  ASSERT_EQ(fused.size(), 2u);
  EXPECT_EQ(fused.ops[0].code, opcode::ripple_lossless);
  EXPECT_EQ(fused.ops[0].imm, 1u);
  EXPECT_EQ(fused.ops[1].code, opcode::halt);

  program_builder e;
  const auto into = e.reserve_jump();
  const std::size_t start = e.here();
  e.shift(1, 1, shift_dir::left);
  e.patch_to_here(into);
  e.pair(1, 0, 0, 1);
  e.check_zero(1);
  e.branch_nonzero_to(start);
  const kernel entered = decode(e.take());
  EXPECT_EQ(entered.size(), 5u);
  EXPECT_EQ(entered.ops[4].code, opcode::bnz);
  EXPECT_EQ(entered.ops[4].offset(), -4);
}

// Malformed programs are rejected before any op runs: the array, its
// statistics and the zero flag are untouched.
void expect_rejected_before_running(const program& p, const std::type_info& type) {
  sram::subarray arr(kRows, sram::tile_geometry{64, 16}, sram::tech_45nm());
  arr.host_write_word(0, 0, 0x1234);
  const sram::subarray before = arr;
  const outcome o = capture([&] { return executor().run(p, arr); });
  ASSERT_TRUE(o.thrown.has_value());
  EXPECT_EQ(*o.thrown, type.name());
  expect_same_state(arr, before, "rejected program");
}

TEST(ExecutorDecode, MalformedProgramsThrowBeforeAnyOpRuns) {
  {
    program_builder b;
    b.copy(1, 0);
    b.copy(kRows, 0);  // one past the last row
    expect_rejected_before_running(b.take(), typeid(std::out_of_range));
  }
  {
    program_builder b;
    b.copy(1, 0);
    b.check_pred(0, 16);  // tiles are 16 bits wide
    expect_rejected_before_running(b.take(), typeid(std::out_of_range));
  }
  {
    program_builder b;
    b.copy(1, 0);
    b.emit(make_jump(5));  // past the end
    expect_rejected_before_running(b.take(), typeid(std::runtime_error));
  }
  {
    program_builder b;
    b.copy(1, 0);
    b.emit(make_branch_nonzero(-3));  // before the start
    expect_rejected_before_running(b.take(), typeid(std::runtime_error));
  }
  {
    program_builder b;
    b.copy(1, 0);
    micro_op collide = make_pair(2, 3, 0, 1);
    collide.s_dst_delta = 0;
    b.emit(collide);
    expect_rejected_before_running(b.take(), typeid(std::invalid_argument));
  }
}

}  // namespace
}  // namespace bpntt::isa
