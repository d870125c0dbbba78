// Decoded kernel: the form a micro-op program is cached and executed in.
//
// decode() turns a program into a flat array of 8-byte ops with one opcode
// per op variant (a masked inverted copy, a lossless segmented left shift,
// ...), so the executor dispatches on a single byte and reads no flag.
// Everything that does not depend on the data is checked here, once per
// program rather than once per executed op:
//
// * branch targets lie in [0, size] (size = fall off the end);
// * pair destinations differ and lie in the 9-bit row space;
// * op fields hold known values;
// * the highest row and predicate bit any op addresses are recorded, so
//   the executor checks them against the subarray once per run.
//
// The decoder also recognizes the compiler's carry-ripple do-while loop
// (microcode_compiler::emit_ripple with fused pairs)
//
//   L: { shift c <- c << 1 ; pair {c, s} <- {s & c, s ^ c} } x period
//      check_zero c ; bnz L
//
// and emits it as one `ripple` op.  The executor runs a ripple iteration as
// the same sequence of row kernels and charges it exactly as the
// individually dispatched ops (see docs/DESIGN.md §7).  A loop is fused
// only when no branch enters its body past its first op.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/program.h"

namespace bpntt::isa {

enum class opcode : std::uint8_t {
  // binary: dst <- src0 fn src1 (enumerator order follows sram::logic_fn)
  op_and,
  op_or,
  op_xor,
  op_nor,
  pair,  // {dst, dst + imm} <- {src0 & src1, src0 ^ src1}
  // unary: dst <- [~]src0 under a write mask
  copy,
  copy_pred,
  copy_pred_inv,
  copy_inv,
  copy_inv_pred,
  copy_inv_pred_inv,
  // shift: dst <- src0 shifted one column (seg = tile-segmented)
  shl_seg,
  shl_seg_lossless,
  shr_seg,
  shr_seg_lossless,
  shl,
  shl_lossless,
  shr,
  shr_lossless,
  check_pred,  // latch bit imm of src0
  check_zero,  // zero flag <- src0 == 0
  // controller: offset() is relative to the next op, in kernel ops
  halt,
  jump,
  bnz,
  bz,
  // carry ripple on carry row dst and sum row src0, imm = period; fused
  // ops come last, as the executor budgets them per inner dispatch
  ripple,
  ripple_lossless,
};

struct kernel_op {
  opcode code = opcode::halt;
  // check_pred: bit index; pair: s_dst - dst (two's complement); ripple:
  // period.
  std::uint8_t imm = 0;
  std::uint16_t dst = 0;  // controller ops: offset() in two's complement
  std::uint16_t src0 = 0;
  std::uint16_t src1 = 0;

  // Controller ops: the next op is this op's index + 1 + offset().
  [[nodiscard]] std::int16_t offset() const noexcept { return static_cast<std::int16_t>(dst); }
};
static_assert(sizeof(kernel_op) == 8);

struct kernel {
  std::vector<kernel_op> ops;
  unsigned rows_needed = 0;  // 1 + the highest row any op addresses
  unsigned bits_needed = 0;  // 1 + the highest predicate bit index

  [[nodiscard]] std::size_t size() const noexcept { return ops.size(); }
};

// Throws std::runtime_error for a branch out of range, std::out_of_range
// for a pair result row below row 0, and std::invalid_argument for
// colliding pair destinations or an unknown field value.
[[nodiscard]] kernel decode(const program& p);

}  // namespace bpntt::isa
