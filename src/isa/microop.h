// BP-NTT micro-instruction set (Fig. 4d of the paper).
//
// Four array-instruction types — Check / Unary / Shift / Binary — are
// stored in the repurposed CTRL/CMD subarray.  The paper's figure shows
// 8-bit row-address fields, which cover its 250-coefficient layout
// (250 + 6 intermediate rows = 256 wordlines); the headline 256-point
// evaluation uses the "256x256 plus 6 rows" variant (§V-E), whose >256
// wordlines require 9-bit addresses.  We therefore encode 9-bit row fields
// and pack control words into 64 bits (35 bits used); this is the only
// deviation from the figure and is recorded in docs/DESIGN.md §6.
//
// The controller additionally executes three program-flow pseudo-ops (halt
// and short relative jumps/branches on the wired-OR zero flag); these never
// touch the array and live in a reserved Check sub-mode.
//
// Encoding layout (LSB first):
//   all types    [1:0]   type (0 check, 1 unary, 2 shift, 3 binary)
//   check        [10:2]  src row     [18:11] bit index
//                [20:19] mode (0 latch-predicate, 1 zero-test, 2 ctrl)
//                ctrl:   [22:21] kind (0 halt, 1 jump, 2 bnz, 3 bz)
//                        [32:23] signed 10-bit relative offset
//   unary        [10:2]  dst         [19:11] src
//                [20] invert         [22:21] write mask mode
//   shift        [10:2]  dst         [19:11] src
//                [20] dir (0 left)   [21] segmented   [22] expect_lossless
//   binary       [10:2]  dst         [19:11] src0     [28:20] src1
//                [30:29] fn (and/or/xor/nor)
//                [31] pair           [34:32] signed s_dst - dst (pair only)
#pragma once

#include <cstdint>
#include <string>

#include "sram/subarray.h"

namespace bpntt::isa {

enum class op_type : std::uint8_t { check = 0, unary = 1, shift = 2, binary = 3 };
enum class check_mode : std::uint8_t { predicate = 0, zero_test = 1, ctrl = 2 };
enum class ctrl_kind : std::uint8_t { halt = 0, jump = 1, branch_nonzero = 2, branch_zero = 3 };

struct micro_op {
  op_type type = op_type::unary;

  // Shared row fields (9-bit range enforced at encode time).
  std::uint16_t dst = 0;
  std::uint16_t src0 = 0;
  std::uint16_t src1 = 0;

  // check
  check_mode mode = check_mode::predicate;
  std::uint8_t bit_index = 0;
  ctrl_kind ctrl = ctrl_kind::halt;
  std::int16_t offset = 0;  // relative, in instructions; [-512, 511]

  // unary
  bool invert = false;
  sram::write_mask mask = sram::write_mask::none;

  // shift
  sram::shift_dir dir = sram::shift_dir::left;
  bool segmented = true;
  bool expect_lossless = false;

  // binary
  sram::logic_fn fn = sram::logic_fn::op_and;
  bool pair = false;
  std::int8_t s_dst_delta = 0;  // s_dst = dst + delta; [-4, 3], nonzero

  bool operator==(const micro_op&) const = default;
};

// --- Factories (the assembler vocabulary). ---
[[nodiscard]] micro_op make_check_pred(std::uint16_t src, std::uint8_t bit);
[[nodiscard]] micro_op make_check_zero(std::uint16_t src);
[[nodiscard]] micro_op make_halt();
[[nodiscard]] micro_op make_jump(std::int16_t offset);
[[nodiscard]] micro_op make_branch_nonzero(std::int16_t offset);
[[nodiscard]] micro_op make_branch_zero(std::int16_t offset);
[[nodiscard]] micro_op make_copy(std::uint16_t dst, std::uint16_t src, bool invert = false,
                                 sram::write_mask mask = sram::write_mask::none);
[[nodiscard]] micro_op make_shift(std::uint16_t dst, std::uint16_t src, sram::shift_dir dir,
                                  bool expect_lossless = false);
[[nodiscard]] micro_op make_binary(std::uint16_t dst, std::uint16_t src0, std::uint16_t src1,
                                   sram::logic_fn fn);
// Fused half-adder: {AND -> c_dst, XOR -> s_dst}; s_dst - c_dst in [-4, 3].
[[nodiscard]] micro_op make_pair(std::uint16_t c_dst, std::uint16_t s_dst, std::uint16_t src0,
                                 std::uint16_t src1);

// Control-word round trip (64-bit words, 35 bits used).
[[nodiscard]] std::uint64_t encode(const micro_op& op);
[[nodiscard]] micro_op decode(std::uint64_t word);

[[nodiscard]] std::string disassemble(const micro_op& op);

}  // namespace bpntt::isa
