#include "isa/kernel.h"

#include <algorithm>
#include <stdexcept>

namespace bpntt::isa {
namespace {

bool is_branch(const micro_op& op) {
  return op.type == op_type::check && op.mode == check_mode::ctrl && op.ctrl != ctrl_kind::halt;
}

// Target of the branch at pc: pc + 1 + offset, within [0, size].
std::size_t branch_target(const program& p, std::size_t pc) {
  const std::ptrdiff_t t = static_cast<std::ptrdiff_t>(pc) + 1 + p.ops[pc].offset;
  if (t < 0 || t > static_cast<std::ptrdiff_t>(p.size())) {
    throw std::runtime_error("executor: branch out of range");
  }
  return static_cast<std::size_t>(t);
}

void require(bool ok) {
  if (!ok) throw std::invalid_argument("executor: malformed micro-op");
}

bool is_ripple_shift(const micro_op& op, std::uint16_t carry, bool lossless) {
  return op.type == op_type::shift && op.dst == carry && op.src0 == carry &&
         op.dir == sram::shift_dir::left && op.segmented && op.expect_lossless == lossless;
}

// {carry, sum} <- {sum & carry, sum ^ carry}; fixes `sum` on the first match.
bool is_ripple_pair(const micro_op& op, std::uint16_t carry, int& sum) {
  if (op.type != op_type::binary || !op.pair || op.dst != carry) return false;
  const int s = carry + op.s_dst_delta;
  if (sum < 0) sum = s;
  return s == sum && s >= 0 && s != carry &&
         ((op.src0 == s && op.src1 == carry) || (op.src0 == carry && op.src1 == s));
}

struct ripple_match {
  unsigned period = 0;  // 0: no fusable loop
  std::uint16_t carry = 0;
  std::uint16_t sum = 0;
  bool lossless = false;
};

// The fused carry-ripple loop starting at op t, if one does: (shift, pair)
// pairs, a zero test of the carry row, and a bnz back to t, with no branch
// entering the loop past t.
ripple_match ripple_at(const program& p, std::size_t t, const std::vector<bool>& entered) {
  const auto& ops = p.ops;
  ripple_match m;
  if (ops[t].type != op_type::shift) return m;
  const std::uint16_t carry = ops[t].dst;
  const bool lossless = ops[t].expect_lossless;
  int sum = -1;
  std::size_t pc = t;
  unsigned period = 0;
  while (pc + 1 < ops.size() && is_ripple_shift(ops[pc], carry, lossless) &&
         is_ripple_pair(ops[pc + 1], carry, sum)) {
    pc += 2;
    ++period;
  }
  if (period == 0 || period > 255 || pc + 1 >= ops.size()) return m;
  const micro_op& check = ops[pc];
  const micro_op& bnz = ops[pc + 1];
  if (check.type != op_type::check || check.mode != check_mode::zero_test || check.src0 != carry ||
      !is_branch(bnz) || bnz.ctrl != ctrl_kind::branch_nonzero || branch_target(p, pc + 1) != t) {
    return m;
  }
  if (std::any_of(entered.begin() + static_cast<std::ptrdiff_t>(t) + 1,
                  entered.begin() + static_cast<std::ptrdiff_t>(pc) + 2,
                  [](bool e) { return e; })) {
    return m;
  }
  m.period = period;
  m.carry = carry;
  m.sum = static_cast<std::uint16_t>(sum);
  m.lossless = lossless;
  return m;
}

// One program op as a kernel op (controller offsets are patched later).
kernel_op lower(const micro_op& op, kernel& k) {
  kernel_op out;
  unsigned top_row = 0;
  switch (op.type) {
    case op_type::check:
      switch (op.mode) {
        case check_mode::predicate:
          out.code = opcode::check_pred;
          out.src0 = op.src0;
          out.imm = op.bit_index;
          top_row = op.src0;
          k.bits_needed = std::max(k.bits_needed, op.bit_index + 1U);
          break;
        case check_mode::zero_test:
          out.code = opcode::check_zero;
          out.src0 = op.src0;
          top_row = op.src0;
          break;
        case check_mode::ctrl:
          require(op.ctrl <= ctrl_kind::branch_zero);
          out.code = static_cast<opcode>(static_cast<unsigned>(opcode::halt) +
                                         static_cast<unsigned>(op.ctrl));
          return out;
        default:
          require(false);
      }
      break;
    case op_type::unary: {
      require(op.mask <= sram::write_mask::pred_inv);
      const unsigned base = static_cast<unsigned>(op.invert ? opcode::copy_inv : opcode::copy);
      out.code = static_cast<opcode>(base + static_cast<unsigned>(op.mask));
      out.dst = op.dst;
      out.src0 = op.src0;
      top_row = std::max(op.dst, op.src0);
      break;
    }
    case op_type::shift: {
      require(op.dir <= sram::shift_dir::right);
      const unsigned variant = (op.segmented ? 0U : 4U) +
                               (op.dir == sram::shift_dir::right ? 2U : 0U) +
                               (op.expect_lossless ? 1U : 0U);
      out.code = static_cast<opcode>(static_cast<unsigned>(opcode::shl_seg) + variant);
      out.dst = op.dst;
      out.src0 = op.src0;
      top_row = std::max(op.dst, op.src0);
      break;
    }
    case op_type::binary:
      out.dst = op.dst;
      out.src0 = op.src0;
      out.src1 = op.src1;
      top_row = std::max({op.dst, op.src0, op.src1});
      if (op.pair) {
        const int s_dst = op.dst + op.s_dst_delta;
        if (s_dst < 0) throw std::out_of_range("subarray: row index");
        if (s_dst == op.dst) throw std::invalid_argument("subarray: pair destinations collide");
        out.code = opcode::pair;
        out.imm = static_cast<std::uint8_t>(op.s_dst_delta);
        top_row = std::max(top_row, static_cast<unsigned>(s_dst));
      } else {
        require(op.fn <= sram::logic_fn::op_nor);
        out.code = static_cast<opcode>(static_cast<unsigned>(opcode::op_and) +
                                       static_cast<unsigned>(op.fn));
      }
      break;
    default:
      require(false);
  }
  k.rows_needed = std::max(k.rows_needed, top_row + 1);
  return out;
}

}  // namespace

kernel decode(const program& p) {
  const std::size_t n = p.size();
  // Ops some branch jumps to; a loop is fused only if none lies inside it.
  std::vector<bool> entered(n + 1, false);
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (is_branch(p.ops[pc])) entered[branch_target(p, pc)] = true;
  }

  kernel k;
  k.ops.reserve(n);
  std::vector<std::size_t> index(n + 1);  // program op -> kernel op
  struct pending_branch {
    std::size_t at;      // kernel op
    std::size_t target;  // program op
  };
  std::vector<pending_branch> branches;
  for (std::size_t pc = 0; pc < n;) {
    index[pc] = k.ops.size();
    if (const ripple_match m = ripple_at(p, pc, entered); m.period != 0) {
      kernel_op op;
      op.code = m.lossless ? opcode::ripple_lossless : opcode::ripple;
      op.imm = static_cast<std::uint8_t>(m.period);
      op.dst = m.carry;
      op.src0 = m.sum;
      k.rows_needed = std::max<unsigned>({k.rows_needed, m.carry + 1U, m.sum + 1U});
      k.ops.push_back(op);
      pc += 2 * std::size_t{m.period} + 2;
      continue;
    }
    if (is_branch(p.ops[pc])) branches.push_back({k.ops.size(), branch_target(p, pc)});
    k.ops.push_back(lower(p.ops[pc], k));
    ++pc;
  }
  index[n] = k.ops.size();
  // Fusion only shortens distances, so every offset still fits 16 bits.
  for (const pending_branch& b : branches) {
    const std::ptrdiff_t offset = static_cast<std::ptrdiff_t>(index[b.target]) -
                                  static_cast<std::ptrdiff_t>(b.at) - 1;
    k.ops[b.at].dst = static_cast<std::uint16_t>(offset);
  }
  return k;
}

}  // namespace bpntt::isa
