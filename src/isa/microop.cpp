#include "isa/microop.h"

#include <stdexcept>

namespace bpntt::isa {
namespace {

void check_row(std::uint16_t row) {
  if (row >= 512) throw std::invalid_argument("micro_op: row address exceeds 9 bits");
}

}  // namespace

micro_op make_check_pred(std::uint16_t src, std::uint8_t bit) {
  check_row(src);
  micro_op op;
  op.type = op_type::check;
  op.mode = check_mode::predicate;
  op.src0 = src;
  op.bit_index = bit;
  return op;
}

micro_op make_check_zero(std::uint16_t src) {
  check_row(src);
  micro_op op;
  op.type = op_type::check;
  op.mode = check_mode::zero_test;
  op.src0 = src;
  return op;
}

namespace {
micro_op make_ctrl(ctrl_kind kind, std::int16_t offset) {
  if (offset < -512 || offset > 511) throw std::invalid_argument("micro_op: ctrl offset range");
  micro_op op;
  op.type = op_type::check;
  op.mode = check_mode::ctrl;
  op.ctrl = kind;
  op.offset = offset;
  return op;
}
}  // namespace

micro_op make_halt() { return make_ctrl(ctrl_kind::halt, 0); }
micro_op make_jump(std::int16_t offset) { return make_ctrl(ctrl_kind::jump, offset); }
micro_op make_branch_nonzero(std::int16_t offset) {
  return make_ctrl(ctrl_kind::branch_nonzero, offset);
}
micro_op make_branch_zero(std::int16_t offset) {
  return make_ctrl(ctrl_kind::branch_zero, offset);
}

micro_op make_copy(std::uint16_t dst, std::uint16_t src, bool invert, sram::write_mask mask) {
  check_row(dst);
  check_row(src);
  micro_op op;
  op.type = op_type::unary;
  op.dst = dst;
  op.src0 = src;
  op.invert = invert;
  op.mask = mask;
  return op;
}

micro_op make_shift(std::uint16_t dst, std::uint16_t src, sram::shift_dir dir,
                    bool expect_lossless) {
  check_row(dst);
  check_row(src);
  micro_op op;
  op.type = op_type::shift;
  op.dst = dst;
  op.src0 = src;
  op.dir = dir;
  op.segmented = true;
  op.expect_lossless = expect_lossless;
  return op;
}

micro_op make_binary(std::uint16_t dst, std::uint16_t src0, std::uint16_t src1,
                     sram::logic_fn fn) {
  check_row(dst);
  check_row(src0);
  check_row(src1);
  micro_op op;
  op.type = op_type::binary;
  op.dst = dst;
  op.src0 = src0;
  op.src1 = src1;
  op.fn = fn;
  return op;
}

micro_op make_pair(std::uint16_t c_dst, std::uint16_t s_dst, std::uint16_t src0,
                   std::uint16_t src1) {
  check_row(c_dst);
  check_row(s_dst);
  check_row(src0);
  check_row(src1);
  const int delta = static_cast<int>(s_dst) - static_cast<int>(c_dst);
  if (delta < -4 || delta > 3 || delta == 0) {
    throw std::invalid_argument("micro_op: pair s_dst must be within [-4,3] of c_dst");
  }
  micro_op op;
  op.type = op_type::binary;
  op.dst = c_dst;
  op.src0 = src0;
  op.src1 = src1;
  op.pair = true;
  op.s_dst_delta = static_cast<std::int8_t>(delta);
  return op;
}

std::uint64_t encode(const micro_op& op) {
  std::uint64_t w = static_cast<std::uint64_t>(op.type) & 0x3U;
  switch (op.type) {
    case op_type::check:
      w |= static_cast<std::uint64_t>(op.src0 & 0x1FFU) << 2;
      w |= static_cast<std::uint64_t>(op.bit_index) << 11;
      w |= (static_cast<std::uint64_t>(op.mode) & 0x3U) << 19;
      if (op.mode == check_mode::ctrl) {
        w |= (static_cast<std::uint64_t>(op.ctrl) & 0x3U) << 21;
        w |= (static_cast<std::uint64_t>(op.offset) & 0x3FFU) << 23;
      }
      break;
    case op_type::unary:
      w |= static_cast<std::uint64_t>(op.dst & 0x1FFU) << 2;
      w |= static_cast<std::uint64_t>(op.src0 & 0x1FFU) << 11;
      w |= static_cast<std::uint64_t>(op.invert ? 1 : 0) << 20;
      w |= (static_cast<std::uint64_t>(op.mask) & 0x3U) << 21;
      break;
    case op_type::shift:
      w |= static_cast<std::uint64_t>(op.dst & 0x1FFU) << 2;
      w |= static_cast<std::uint64_t>(op.src0 & 0x1FFU) << 11;
      w |= static_cast<std::uint64_t>(op.dir == sram::shift_dir::right ? 1 : 0) << 20;
      w |= static_cast<std::uint64_t>(op.segmented ? 1 : 0) << 21;
      w |= static_cast<std::uint64_t>(op.expect_lossless ? 1 : 0) << 22;
      break;
    case op_type::binary:
      w |= static_cast<std::uint64_t>(op.dst & 0x1FFU) << 2;
      w |= static_cast<std::uint64_t>(op.src0 & 0x1FFU) << 11;
      w |= static_cast<std::uint64_t>(op.src1 & 0x1FFU) << 20;
      w |= (static_cast<std::uint64_t>(op.fn) & 0x3U) << 29;
      w |= static_cast<std::uint64_t>(op.pair ? 1 : 0) << 31;
      w |= (static_cast<std::uint64_t>(op.s_dst_delta) & 0x7U) << 32;
      break;
  }
  return w;
}

micro_op decode(std::uint64_t w) {
  micro_op op;
  op.type = static_cast<op_type>(w & 0x3U);
  switch (op.type) {
    case op_type::check:
      op.src0 = static_cast<std::uint16_t>((w >> 2) & 0x1FFU);
      op.bit_index = static_cast<std::uint8_t>((w >> 11) & 0xFFU);
      op.mode = static_cast<check_mode>((w >> 19) & 0x3U);
      if (op.mode == check_mode::ctrl) {
        op.ctrl = static_cast<ctrl_kind>((w >> 21) & 0x3U);
        const std::uint32_t raw = static_cast<std::uint32_t>((w >> 23) & 0x3FFU);
        op.offset = static_cast<std::int16_t>(raw >= 512 ? static_cast<int>(raw) - 1024
                                                         : static_cast<int>(raw));
      }
      break;
    case op_type::unary:
      op.dst = static_cast<std::uint16_t>((w >> 2) & 0x1FFU);
      op.src0 = static_cast<std::uint16_t>((w >> 11) & 0x1FFU);
      op.invert = ((w >> 20) & 1U) != 0;
      op.mask = static_cast<sram::write_mask>((w >> 21) & 0x3U);
      break;
    case op_type::shift:
      op.dst = static_cast<std::uint16_t>((w >> 2) & 0x1FFU);
      op.src0 = static_cast<std::uint16_t>((w >> 11) & 0x1FFU);
      op.dir = ((w >> 20) & 1U) != 0 ? sram::shift_dir::right : sram::shift_dir::left;
      op.segmented = ((w >> 21) & 1U) != 0;
      op.expect_lossless = ((w >> 22) & 1U) != 0;
      break;
    case op_type::binary:
      op.dst = static_cast<std::uint16_t>((w >> 2) & 0x1FFU);
      op.src0 = static_cast<std::uint16_t>((w >> 11) & 0x1FFU);
      op.src1 = static_cast<std::uint16_t>((w >> 20) & 0x1FFU);
      op.fn = static_cast<sram::logic_fn>((w >> 29) & 0x3U);
      op.pair = ((w >> 31) & 1U) != 0;
      {
        const std::uint32_t raw = static_cast<std::uint32_t>((w >> 32) & 0x7U);
        op.s_dst_delta = static_cast<std::int8_t>(raw >= 4 ? static_cast<int>(raw) - 8
                                                           : static_cast<int>(raw));
      }
      break;
  }
  return op;
}

std::string disassemble(const micro_op& op) {
  // Built in place: gcc 12 -O3 flags "r" + std::to_string(r) with a
  // spurious -Wrestrict.
  auto row = [](std::uint16_t r) {
    std::string s = std::to_string(r);
    s.insert(s.begin(), 'r');
    return s;
  };
  switch (op.type) {
    case op_type::check:
      switch (op.mode) {
        case check_mode::predicate:
          return "check.pred " + row(op.src0) + ", bit " + std::to_string(op.bit_index);
        case check_mode::zero_test:
          return "check.zero " + row(op.src0);
        case check_mode::ctrl:
          switch (op.ctrl) {
            case ctrl_kind::halt: return "halt";
            case ctrl_kind::jump: return "jump " + std::to_string(op.offset);
            case ctrl_kind::branch_nonzero: return "bnz " + std::to_string(op.offset);
            case ctrl_kind::branch_zero: return "bz " + std::to_string(op.offset);
          }
      }
      return "check.?";
    case op_type::unary: {
      std::string s = "copy " + row(op.dst) + " <- " + (op.invert ? "~" : "") + row(op.src0);
      if (op.mask == sram::write_mask::pred) s += " if.pred";
      if (op.mask == sram::write_mask::pred_inv) s += " if.npred";
      return s;
    }
    case op_type::shift:
      return std::string("shift.") + (op.dir == sram::shift_dir::left ? "l " : "r ") +
             row(op.dst) + " <- " + row(op.src0) + (op.expect_lossless ? " !lossless" : "");
    case op_type::binary: {
      static const char* fns[] = {"and", "or", "xor", "nor"};
      if (op.pair) {
        return "pair {" + row(op.dst) + "," +
               row(static_cast<std::uint16_t>(op.dst + op.s_dst_delta)) + "} <- " +
               row(op.src0) + ", " + row(op.src1);
      }
      return std::string(fns[static_cast<int>(op.fn)]) + " " + row(op.dst) + " <- " +
             row(op.src0) + ", " + row(op.src1);
    }
  }
  return "?";
}

}  // namespace bpntt::isa
