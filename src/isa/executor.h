// Controller model: fetches micro-ops from a decoded kernel and issues them
// to one subarray, handling the ctrl pseudo-ops (halt / jump / branches on
// the wired-OR zero flag).  Array ops cost one array cycle each; ctrl ops
// execute in the controller concurrently with the array and cost no array
// cycles.
//
// The run loop keeps the subarray's op counters, energy sum and zero flag
// in locals and hands them back on halt, on falling off the end and before
// every throw, so the subarray's stats() are exactly what issuing each op
// through subarray::op_* would leave (docs/DESIGN.md §7).
#pragma once

#include <cstdint>

#include "isa/kernel.h"
#include "isa/program.h"
#include "sram/subarray.h"

namespace bpntt::isa {

struct run_result {
  std::uint64_t executed_ops = 0;   // array ops issued
  std::uint64_t executed_ctrl = 0;  // controller-only ops
  bool halted = false;              // reached a halt (vs. fell off the end)
};

class executor {
 public:
  // `max_ops` guards against runaway loops in malformed programs: every
  // dispatched op, array or ctrl, spends one unit, and the op that finds
  // the budget spent throws std::runtime_error instead of running.
  explicit executor(std::uint64_t max_ops = 1ULL << 32) : max_ops_(max_ops) {}

  // Throws std::out_of_range before any op runs when the kernel addresses
  // a row or predicate bit the array does not have.
  run_result run(const kernel& k, sram::subarray& array) const;
  // decode(p), then run it.
  run_result run(const program& p, sram::subarray& array) const;

 private:
  std::uint64_t max_ops_;
};

}  // namespace bpntt::isa
