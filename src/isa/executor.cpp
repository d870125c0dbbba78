#include "isa/executor.h"

#include <algorithm>
#include <stdexcept>

namespace bpntt::isa {
namespace {

namespace kern = sram::kernels;
using sram::logic_fn;
using sram::shift_dir;
using sram::write_mask;

// Runs a validated kernel with W words per row (0 = run-time width).  Each
// array op is counted and charged as subarray::op_* would, energy added in
// dispatch order so the double sum is bit-identical.
template <unsigned W>
run_result run_kernel(const kernel& k, sram::subarray& array, std::uint64_t budget) {
  // The run reads the tile and fault masks through private copies, which no
  // row store can alias, so the compiler keeps them out of the per-op loads.
  const sram::row_view raw = array.raw();
  const unsigned words = kern::words<W>(raw);
  kern::row_words<W> lsb, msb, used, stuck_low, stuck_high;
  std::copy_n(raw.tile_lsb, words, lsb.begin());
  std::copy_n(raw.tile_msb, words, msb.begin());
  std::copy_n(raw.used, words, used.begin());
  std::copy_n(raw.stuck_low, words, stuck_low.begin());
  std::copy_n(raw.stuck_high, words, stuck_high.begin());
  sram::row_view v = raw;
  v.tile_lsb = lsb.data();
  v.tile_msb = msb.data();
  v.used = used.data();
  v.stuck_low = stuck_low.data();
  v.stuck_high = stuck_high.data();
  const sram::subarray::op_energy e = array.energy();
  const sram::op_stats start = array.stats();
  std::uint64_t binary = 0, pair = 0, copy = 0, shift = 0, check = 0, violations = 0;
  double energy = start.energy_pj;
  bool zero = array.zero_flag();
  run_result r;
  // Every dispatch, array or ctrl, spends one unit of the budget; the one
  // that finds it spent runs nothing and leaves through `out`.
  bool exhausted = false;

  const auto binary_op = [&](const kernel_op& op, logic_fn fn) {
    kern::binary<W>(v, op.dst, op.src0, op.src1, fn, write_mask::none);
    ++binary;
    energy += e.binary;
  };
  const auto pair_op = [&](unsigned c_dst, unsigned s_dst, unsigned src0, unsigned src1) {
    kern::pair<W>(v, c_dst, s_dst, src0, src1, write_mask::none);
    ++pair;
    energy += e.pair;
  };
  const auto copy_op = [&](const kernel_op& op, bool invert, write_mask mask) {
    kern::copy<W>(v, op.dst, op.src0, invert, mask);
    ++copy;
    energy += e.copy;
  };
  const auto shift_op = [&](unsigned dst, unsigned src, shift_dir dir, bool segmented,
                            bool lossless) {
    violations += kern::shift<W>(v, dst, src, dir, segmented, lossless);
    ++shift;
    energy += e.shift;
  };
  const auto check_zero_op = [&](unsigned src) {
    zero = kern::check_zero<W>(v, src);
    ++check;
    energy += e.check;
  };

  const kernel_op* ops = k.ops.data();
  const std::size_t n = k.ops.size();
  std::size_t pc = 0;
  const auto branch = [&](const kernel_op& op, bool taken) {
    ++r.executed_ctrl;
    if (taken) pc = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(pc) + op.offset());
  };
  while (pc < n) {
    const kernel_op op = ops[pc++];
    // A fused ripple spends its budget per inner dispatch.
    if (op.code < opcode::ripple && budget-- == 0) goto out_of_budget;
    switch (op.code) {
      case opcode::op_and: binary_op(op, logic_fn::op_and); break;
      case opcode::op_or: binary_op(op, logic_fn::op_or); break;
      case opcode::op_xor: binary_op(op, logic_fn::op_xor); break;
      case opcode::op_nor: binary_op(op, logic_fn::op_nor); break;
      case opcode::pair:
        pair_op(op.dst, op.dst + static_cast<std::int8_t>(op.imm), op.src0, op.src1);
        break;
      case opcode::copy: copy_op(op, false, write_mask::none); break;
      case opcode::copy_pred: copy_op(op, false, write_mask::pred); break;
      case opcode::copy_pred_inv: copy_op(op, false, write_mask::pred_inv); break;
      case opcode::copy_inv: copy_op(op, true, write_mask::none); break;
      case opcode::copy_inv_pred: copy_op(op, true, write_mask::pred); break;
      case opcode::copy_inv_pred_inv: copy_op(op, true, write_mask::pred_inv); break;
      case opcode::shl_seg: shift_op(op.dst, op.src0, shift_dir::left, true, false); break;
      case opcode::shl_seg_lossless:
        shift_op(op.dst, op.src0, shift_dir::left, true, true);
        break;
      case opcode::shr_seg: shift_op(op.dst, op.src0, shift_dir::right, true, false); break;
      case opcode::shr_seg_lossless:
        shift_op(op.dst, op.src0, shift_dir::right, true, true);
        break;
      case opcode::shl: shift_op(op.dst, op.src0, shift_dir::left, false, false); break;
      case opcode::shl_lossless: shift_op(op.dst, op.src0, shift_dir::left, false, true); break;
      case opcode::shr: shift_op(op.dst, op.src0, shift_dir::right, false, false); break;
      case opcode::shr_lossless: shift_op(op.dst, op.src0, shift_dir::right, false, true); break;
      case opcode::check_pred:
        kern::check_pred<W>(v, op.src0, op.imm);
        ++check;
        energy += e.check;
        break;
      case opcode::check_zero: check_zero_op(op.src0); break;
      case opcode::halt:
        ++r.executed_ctrl;
        r.halted = true;
        goto out;
      case opcode::jump: branch(op, true); break;
      case opcode::bnz: branch(op, !zero); break;
      case opcode::bz: branch(op, zero); break;
      case opcode::ripple:
      case opcode::ripple_lossless: {
        // do { {shift c <- c << 1; pair {c, s} <- {s & c, s ^ c}} x period;
        //      check_zero c; bnz } while (c != 0), dispatch by dispatch.
        const bool lossless = op.code == opcode::ripple_lossless;
        do {
          for (unsigned i = 0; i < op.imm; ++i) {
            if (budget-- == 0) goto out_of_budget;
            shift_op(op.dst, op.dst, shift_dir::left, true, lossless);
            if (budget-- == 0) goto out_of_budget;
            pair_op(op.dst, op.src0, op.src0, op.dst);
          }
          if (budget-- == 0) goto out_of_budget;
          check_zero_op(op.dst);
          if (budget-- == 0) goto out_of_budget;
          ++r.executed_ctrl;
        } while (!zero);
        break;
      }
    }
  }
  goto out;
out_of_budget:
  exhausted = true;
out:
  sram::op_stats s = start;
  r.executed_ops = binary + pair + copy + shift + check;
  s.cycles += r.executed_ops;
  s.binary_ops += binary;
  s.pair_ops += pair;
  s.copy_ops += copy;
  s.shift_ops += shift;
  s.check_ops += check;
  s.lossless_shift_violations += violations;
  s.energy_pj = energy;
  array.set_counters(s, zero);
  if (exhausted) throw std::runtime_error("executor: op budget exhausted (runaway loop?)");
  return r;
}

}  // namespace

run_result executor::run(const kernel& k, sram::subarray& array) const {
  if (k.rows_needed > array.rows()) throw std::out_of_range("subarray: row index");
  if (k.bits_needed > array.geometry().tile_bits) {
    throw std::out_of_range("subarray: predicate bit index");
  }
  // The paper's 256-column array gets a loop with its row width fixed.
  if ((array.cols() + 63) / 64 == 4) return run_kernel<4>(k, array, max_ops_);
  return run_kernel<0>(k, array, max_ops_);
}

run_result executor::run(const program& p, sram::subarray& array) const {
  return run(decode(p), array);
}

}  // namespace bpntt::isa
