// Program-level properties of the compiled kernels: determinism, command
// stream image round-trips that execute identically, op-count scaling, and
// the per-butterfly cycle budget implied by Table I.
#include <gtest/gtest.h>

#include "bpntt/engine.h"
#include "common/xoshiro.h"

namespace bpntt::core {
namespace {

microcode_compiler make_compiler(u64 n, u64 q, unsigned k, unsigned data_rows) {
  ntt_params p;
  p.n = n;
  p.q = q;
  p.k = k;
  return microcode_compiler(p, row_layout{data_rows});
}

TEST(ProgramStructure, CompilationIsDeterministic) {
  auto comp = make_compiler(64, 257, 10, 64);
  const math::ntt_tables t(64, 257, true);
  ntt_params p;
  p.n = 64;
  p.q = 257;
  p.k = 10;
  const auto plan = make_twiddle_plan(p, t);
  const auto a = comp.compile_forward(plan);
  const auto b = comp.compile_forward(plan);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  EXPECT_EQ(a.ops, b.ops);
}

TEST(ProgramStructure, EncodedImageExecutesIdentically) {
  // Encode the full forward kernel to CTRL words, decode, and run both on
  // identical arrays: the images must be behaviourally equal.
  ntt_params p;
  p.n = 32;
  p.q = 193;
  p.k = 9;
  engine_config cfg;
  cfg.data_rows = 32;
  cfg.cols = 36;
  const row_layout L{cfg.data_rows};
  microcode_compiler comp(p, L);
  const math::ntt_tables t(p.n, p.q, true);
  const auto plan = make_twiddle_plan(p, t);
  const auto prog = comp.compile_forward(plan);
  const auto round_tripped = isa::program::decode_image(prog.encode_image());

  auto make_loaded_array = [&] {
    sram::subarray arr(L.total_rows(), sram::tile_geometry{cfg.cols, p.k},
                       sram::tech_45nm());
    common::xoshiro256ss rng(11);
    for (unsigned tile = 0; tile < arr.geometry().num_tiles(); ++tile) {
      arr.host_write_word(tile, L.m_row(), p.q);
      arr.host_write_word(tile, L.mneg_row(), (1ULL << p.k) - p.q);
      arr.host_write_word(tile, L.one_row(), 1);
      for (unsigned r = 0; r < p.n; ++r) arr.host_write_word(tile, r, rng.below(p.q));
    }
    return arr;
  };
  auto a1 = make_loaded_array();
  auto a2 = make_loaded_array();
  isa::executor exec;
  exec.run(prog, a1);
  exec.run(round_tripped, a2);
  for (unsigned r = 0; r < L.total_rows(); ++r) {
    ASSERT_EQ(a1.peek(r), a2.peek(r)) << "row " << r;
  }
}

TEST(ProgramStructure, OpCountScalesWithButterflies) {
  // Static command count ~ butterflies x per-butterfly ops (ripple loops
  // are compiled as loops, so this is program size, not cycles).
  const math::ntt_tables t64(64, 12289, true);
  const math::ntt_tables t128(128, 12289, true);
  ntt_params p;
  p.q = 12289;
  p.k = 16;
  p.n = 64;
  const auto prog64 = microcode_compiler(p, row_layout{128}).compile_forward(
      make_twiddle_plan(p, t64));
  p.n = 128;
  const auto prog128 = microcode_compiler(p, row_layout{128}).compile_forward(
      make_twiddle_plan(p, t128));
  // butterflies: 64*6/2=192 vs 128*7/2=448 -> ratio 2.33; twiddle densities
  // differ slightly, allow a band.
  const double ratio = static_cast<double>(prog128.ops.size()) / prog64.ops.size();
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 2.7);
}

TEST(ProgramStructure, PerButterflyCycleBudget) {
  // Table I implies ~230 cycles per butterfly (61.9us x 3.8GHz / 1024).
  // Our reconstruction must stay in that regime — this is the regression
  // guard for the anchor gap documented in EXPERIMENTS.md.
  engine_config cfg;
  ntt_params p;
  p.n = 256;
  p.q = 12289;
  p.k = 16;
  bp_ntt_engine eng(cfg, p);
  common::xoshiro256ss rng(12);
  std::vector<u64> poly(p.n);
  for (auto& x : poly) x = rng.below(p.q);
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) eng.load_polynomial(lane, poly);
  const auto stats = eng.run_forward();
  const double per_bf = static_cast<double>(stats.cycles) / (128 * 8);
  EXPECT_GT(per_bf, 150.0);
  EXPECT_LT(per_bf, 350.0);
}

TEST(ProgramStructure, OpBudgetBoundsHealthyRunsForEveryMicrocodeVariant) {
  // The derived budget must never trip on fault-free hardware, whatever
  // the ripple check period or half-adder fusion.
  ntt_params p;
  p.n = 32;
  p.q = 193;
  p.k = 9;
  const row_layout L{32};
  const math::ntt_tables t(p.n, p.q, true);
  for (const bool fuse : {true, false}) {
    for (const unsigned period : {1u, 2u, 3u, 8u}) {
      compile_options o;
      o.fuse_pairs = fuse;
      o.ripple_check_period = period;
      const microcode_compiler comp(p, L, o);
      const auto prog = comp.compile_forward(make_twiddle_plan(p, t));
      const std::uint64_t budget = comp.op_budget(prog);
      sram::subarray arr(L.total_rows(), sram::tile_geometry{36, p.k}, sram::tech_45nm());
      common::xoshiro256ss rng(13);
      for (unsigned tile = 0; tile < arr.geometry().num_tiles(); ++tile) {
        arr.host_write_word(tile, L.m_row(), p.q);
        arr.host_write_word(tile, L.mneg_row(), (1ULL << p.k) - p.q);
        arr.host_write_word(tile, L.one_row(), 1);
        for (unsigned r = 0; r < p.n; ++r) arr.host_write_word(tile, r, rng.below(p.q));
      }
      const auto run = isa::executor(budget).run(prog, arr);
      EXPECT_LE(run.executed_ops + run.executed_ctrl, budget)
          << "fuse " << fuse << " period " << period;
      EXPECT_GT(budget, prog.size());
    }
  }
}

TEST(ProgramStructure, TableOneForwardBudgetIsAboutSixHundredThousandOps) {
  // 202,401 static ops with 6,144 four-op ripple loops, each allowed
  // ceil(16 / 1) - 1 = 15 extra iterations: 202,401 + 6,144 x 60.
  ntt_params p;
  p.n = 256;
  p.q = 12289;
  p.k = 16;
  const microcode_compiler comp(p, row_layout{256});
  const math::ntt_tables t(p.n, p.q, true);
  const auto prog = comp.compile_forward(make_twiddle_plan(p, t));
  EXPECT_EQ(prog.size(), 202401u);
  EXPECT_EQ(comp.op_budget(prog), 202401u + 6144u * 4u * 15u);
}

TEST(ProgramStructure, EveryKernelEndsWithHalt) {
  ntt_params p;
  p.n = 16;
  p.q = 97;
  p.k = 8;
  p.incomplete = true;
  const row_layout L{32};
  microcode_compiler comp(p, L);
  const math::incomplete_ntt_tables t(16, 97);
  const auto plan = make_incomplete_twiddle_plan(p, t);
  for (const auto& prog :
       {comp.compile_forward(plan), comp.compile_inverse(plan),
        comp.compile_basemul(plan, 0, 16, true), comp.compile_modmul_data(0, 1, 2)}) {
    ASSERT_FALSE(prog.ops.empty());
    const auto& last = prog.ops.back();
    EXPECT_EQ(last.type, isa::op_type::check);
    EXPECT_EQ(last.mode, isa::check_mode::ctrl);
    EXPECT_EQ(last.ctrl, isa::ctrl_kind::halt);
  }
}

TEST(ProgramStructure, DisassemblesWithoutUnknowns) {
  ntt_params p;
  p.n = 8;
  p.q = 17;
  p.k = 6;
  const row_layout L{16};
  microcode_compiler comp(p, L);
  const math::ntt_tables t(8, 17, true);
  const auto text = comp.compile_forward(make_twiddle_plan(p, t)).disassemble();
  EXPECT_EQ(text.find('?'), std::string::npos);
  EXPECT_NE(text.find("check.pred"), std::string::npos);
  EXPECT_NE(text.find("pair"), std::string::npos);
  EXPECT_NE(text.find("bnz"), std::string::npos);
}

}  // namespace
}  // namespace bpntt::core
