// Microcode generation options — the ablation knobs for the design choices
// the paper makes implicitly (see docs/DESIGN.md §3 and bench/ablation_microcode):
//
// * fuse_pairs: one dual-row activation writes both half-adder outputs
//   {AND, XOR} in a single cycle (dual write drivers).  Off = conventional
//   single-result sense amplifiers: every half-add costs two activations
//   (plus a staging copy inside ripple loops).
// * ripple_check_period: how many ripple iterations run between wired-OR
//   zero tests.  1 = check every iteration (lowest latency per exit);
//   larger values trade wasted iterations for fewer check cycles.
// * reduced_iterations: run Algorithm 2 for ceil(log2(2q)) iterations
//   (R = 2^that) instead of the full tile width k.  Twiddles are
//   pre-scaled with the matching R, so results are identical; narrower
//   moduli on wide tiles skip the dead top iterations.
#pragma once

namespace bpntt::core {

struct compile_options {
  bool fuse_pairs = true;
  unsigned ripple_check_period = 1;
  bool reduced_iterations = false;

  void validate() const;
};

}  // namespace bpntt::core
