// google-benchmark micro-benchmarks for the building blocks: golden NTT
// (the measured-CPU baseline of Table I), modular-multiplication variants,
// subarray micro-ops, and microcode compilation, decoding and execution.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bpntt/engine.h"
#include "common/xoshiro.h"
#include "isa/kernel.h"
#include "nttmath/barrett.h"
#include "nttmath/bp_modmul_ref.h"
#include "nttmath/montgomery.h"
#include "nttmath/ntt.h"
#include "nttmath/poly.h"

namespace {

using bpntt::math::u64;

void BM_GoldenNttForward(benchmark::State& state) {
  const u64 n = static_cast<u64>(state.range(0));
  const u64 q = 12289;
  const bpntt::math::ntt_tables tables(n, q, true);
  bpntt::common::xoshiro256ss rng(1);
  std::vector<u64> a(n);
  for (auto& x : a) x = rng.below(q);
  for (auto _ : state) {
    bpntt::math::ntt_forward(a, tables);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GoldenNttForward)->Arg(256)->Arg(1024);

void BM_GoldenPolymul(benchmark::State& state) {
  const u64 n = static_cast<u64>(state.range(0));
  const bpntt::math::ntt_tables tables(n, 12289, true);
  bpntt::common::xoshiro256ss rng(2);
  std::vector<u64> a(n), b(n);
  for (auto& x : a) x = rng.below(12289);
  for (auto& x : b) x = rng.below(12289);
  for (auto _ : state) {
    auto c = bpntt::math::polymul_ntt(a, b, tables);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GoldenPolymul)->Arg(256);

void BM_ModmulMontgomery64(benchmark::State& state) {
  const bpntt::math::montgomery64 mont(12289);
  u64 x = 1234;
  for (auto _ : state) {
    x = mont.mul(x, 4321) | 1;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_ModmulMontgomery64);

void BM_ModmulBarrett(benchmark::State& state) {
  const bpntt::math::barrett bar(12289);
  u64 x = 1234;
  for (auto _ : state) {
    x = bar.mul(x, 4321) | 1;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_ModmulBarrett);

void BM_ModmulBitParallelModel(benchmark::State& state) {
  // Software model of Algorithm 2 (per-bit loop) — the algorithmic cost the
  // SRAM hides behind massive parallelism.
  u64 x = 1234;
  for (auto _ : state) {
    x = bpntt::math::bp_modmul(x % 12289, 4321, 12289, 16).value | 1;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_ModmulBitParallelModel);

// Host time of one simulated array cycle, per micro-op class, on the
// Table I geometry (256 columns, 16-bit tiles).
enum class subarray_op { pair, masked_copy, segmented_shift, check_pred, check_zero };

void BM_SubarrayOp(benchmark::State& state, subarray_op op) {
  bpntt::sram::subarray array(32, bpntt::sram::tile_geometry{256, 16},
                              bpntt::sram::tech_45nm());
  bpntt::common::xoshiro256ss rng(4);
  // Operands below 2^15, as in the microcode: lossless shifts drop nothing.
  for (unsigned row = 0; row < 4; ++row) {
    for (unsigned t = 0; t < 16; ++t) array.host_write_word(t, row, rng() & 0x7FFF);
  }
  array.op_check_pred(0, 3);  // a mixed predicate latch for the masked copy
  for (auto _ : state) {
    switch (op) {
      case subarray_op::pair: array.op_pair(2, 3, 0, 1); break;
      case subarray_op::masked_copy:
        array.op_copy(2, 1, false, bpntt::sram::write_mask::pred);
        break;
      case subarray_op::segmented_shift:
        array.op_shift(2, 1, bpntt::sram::shift_dir::left, true, true);
        break;
      case subarray_op::check_pred: array.op_check_pred(1, 5); break;
      case subarray_op::check_zero: array.op_check_zero(1); break;
    }
    benchmark::DoNotOptimize(array.stats().cycles);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_SubarrayOp, pair, subarray_op::pair);
BENCHMARK_CAPTURE(BM_SubarrayOp, masked_copy, subarray_op::masked_copy);
BENCHMARK_CAPTURE(BM_SubarrayOp, segmented_shift, subarray_op::segmented_shift);
BENCHMARK_CAPTURE(BM_SubarrayOp, check_pred, subarray_op::check_pred);
BENCHMARK_CAPTURE(BM_SubarrayOp, check_zero, subarray_op::check_zero);

void BM_CompileForward256(benchmark::State& state) {
  bpntt::core::ntt_params p;
  p.n = 256;
  p.q = 12289;
  p.k = 16;
  const bpntt::math::ntt_tables tables(p.n, p.q, true);
  const auto plan = bpntt::core::make_twiddle_plan(p, tables);
  const bpntt::core::microcode_compiler comp(p, bpntt::core::row_layout{256});
  for (auto _ : state) {
    auto prog = comp.compile_forward(plan);
    benchmark::DoNotOptimize(prog.ops.data());
  }
}
BENCHMARK(BM_CompileForward256);

void BM_DecodeForward256(benchmark::State& state) {
  // Decoding the Table I forward program into the executor's kernel: the
  // one-off cost the engine pays per cached kernel, and what
  // executor::run(program) adds to every run.
  bpntt::core::ntt_params p;
  p.n = 256;
  p.q = 12289;
  p.k = 16;
  const bpntt::math::ntt_tables tables(p.n, p.q, true);
  const auto plan = bpntt::core::make_twiddle_plan(p, tables);
  const bpntt::core::microcode_compiler comp(p, bpntt::core::row_layout{256});
  const auto prog = comp.compile_forward(plan);
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto kernel = bpntt::isa::decode(prog);
    benchmark::DoNotOptimize(kernel.ops.data());
  }
  const std::chrono::duration<double, std::nano> elapsed = std::chrono::steady_clock::now() - start;
  const double ops = static_cast<double>(state.iterations()) * static_cast<double>(prog.size());
  state.counters["ns_per_op"] = elapsed.count() / ops;
}
BENCHMARK(BM_DecodeForward256)->Unit(benchmark::kMillisecond);

void BM_SimulateForward64(benchmark::State& state) {
  // Full cycle-level simulation of a 64-point in-SRAM NTT batch.
  bpntt::core::engine_config cfg;
  cfg.data_rows = 64;
  cfg.cols = 256;
  bpntt::core::ntt_params p;
  p.n = 64;
  p.q = 257;
  p.k = 10;
  bpntt::core::bp_ntt_engine eng(cfg, p);
  bpntt::common::xoshiro256ss rng(3);
  std::vector<u64> poly(64);
  for (auto& x : poly) x = rng.below(257);
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) eng.load_polynomial(lane, poly);
  for (auto _ : state) {
    auto stats = eng.run_forward();
    benchmark::DoNotOptimize(stats.cycles);
  }
}
BENCHMARK(BM_SimulateForward64);

void BM_SimulateForward256(benchmark::State& state) {
  // The Table I batch: 16 lanes of 256-point NTTs, q = 12289, k = 16, on one
  // 256x256 subarray.  ns_per_array_op is host time per simulated array
  // cycle, the simulator row of the performance ledger.
  bpntt::core::ntt_params p;
  p.n = 256;
  p.q = 12289;
  p.k = 16;
  bpntt::core::bp_ntt_engine eng(bpntt::core::engine_config{}, p);
  bpntt::common::xoshiro256ss rng(5);
  std::vector<u64> poly(p.n);
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) {
    for (auto& x : poly) x = rng.below(p.q);
    eng.load_polynomial(lane, poly);
  }
  std::uint64_t array_ops = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const auto stats = eng.run_forward();
    array_ops += stats.total_array_ops();
    benchmark::DoNotOptimize(stats.cycles);
  }
  const std::chrono::duration<double, std::nano> elapsed = std::chrono::steady_clock::now() - start;
  state.counters["ns_per_array_op"] = elapsed.count() / static_cast<double>(array_ops);
}
BENCHMARK(BM_SimulateForward256)->Unit(benchmark::kMillisecond);

}  // namespace
