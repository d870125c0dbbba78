// Microcode ablation study: quantifies the design choices docs/DESIGN.md §3
// reconstructs, at the paper's headline configuration (256-point, 16-bit
// tiles).  Not a paper figure — it bounds how much of the Table I anchor
// gap is attributable to each reconstruction choice.
//
//   fused pairs      dual-write SAs commit both half-adder outputs per
//                    activation (our default, implied by the paper's cycle
//                    budget) vs conventional single-result SAs;
//   check period     wired-OR zero-test frequency in the carry ripples;
//   reduced iters    Algorithm 2 runs ceil(log2 2q) iterations instead of
//                    the tile width (twiddles pre-scaled with matching R).
#include <cstdio>

#include "bpntt/perf_model.h"
#include "common/table.h"

int main() {
  using namespace bpntt;
  std::printf("=== Microcode ablation (256-point NTT, q=12289, 16-bit tiles, "
              "256x256 array) ===\n\n");

  struct variant {
    const char* name;
    core::compile_options opts;
  };
  const variant variants[] = {
      {"fused, check=1 (default)", {true, 1, false}},
      {"fused, check=2", {true, 2, false}},
      {"fused, check=4", {true, 4, false}},
      {"fused, check=1, reduced iters", {true, 1, true}},
      {"fused, check=2, reduced iters", {true, 2, true}},
      {"unfused (single-result SA)", {false, 1, false}},
      {"unfused, reduced iters", {false, 1, true}},
  };

  core::ntt_params p;
  p.n = 256;
  p.q = 12289;
  p.k = 16;

  common::text_table t({"Variant", "Cycles", "Latency(us)", "E/batch(nJ)", "vs default",
                        "vs paper 61.9us"});
  double base_cycles = 0;
  for (const auto& v : variants) {
    core::engine_config cfg;
    cfg.microcode = v.opts;
    const auto m = core::measure_forward(cfg, p);
    if (base_cycles == 0) base_cycles = static_cast<double>(m.cycles);
    t.add_row({v.name, std::to_string(m.cycles), common::format_double(m.latency_us, 1),
               common::format_double(m.energy_nj, 1),
               common::format_double(m.cycles / base_cycles, 2) + "x",
               common::format_double(m.latency_us / 61.9, 2) + "x"});
  }
  std::printf("%s\n", t.to_string(2).c_str());

  std::printf("Reading: the dual-write pair fusion is load-bearing — without it the\n"
              "design misses the paper's cycle budget by ~2x, which is why docs/DESIGN.md\n"
              "adopts it as the faithful reading of Fig. 5(b).  Reduced iterations\n"
              "(a classical Montgomery optimisation the paper does not describe)\n"
              "closes part of the remaining anchor gap; all variants are bit-exact\n"
              "(tests/bpntt/ablation_test.cpp).\n");
  return 0;
}
