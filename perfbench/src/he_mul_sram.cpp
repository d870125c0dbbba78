// he-mul-sram: a closed loop with one caller running leveled RNS-RLWE
// (he_rns_rlwe_level(20, 3, 32)) on the sram backend, one channel per
// ciphertext limb.  Each op encrypts two fresh bit-polynomials, multiplies
// them (tensor -> relinearize -> rescale), decrypts, and checks the result
// against the GF(2) negacyclic product.  The only workload through rns,
// crypto, base-extend/rescale dispatch, multi-channel limb overlap and warm
// residency: the pinned evaluation key hits, fresh ciphertexts miss.
// Threads: the caller + 3 pool workers.
#include <memory>
#include <stdexcept>

#include "common/xoshiro.h"
#include "crypto/rns_rlwe/rns_rlwe.h"
#include "nttmath/ntt.h"
#include "nttmath/poly.h"
#include "rns/rns_engine.h"
#include "runtime/context.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace bpntt;
namespace rr = crypto::rns_rlwe;

constexpr workload_spec kSpec{"he-mul-sram", 75.0, 5, 50, 400'000.0, 5, "simulated",
                              /*traced_min_ops=*/3, /*traced_max_ops=*/60};
constexpr unsigned kChannels = 3;
// Ops whose ciphertexts are probed beside the traced window, after it
// ends (noise budget, rns primitives), so the probes leave the window's
// counters alone.
constexpr std::size_t kSamples = 4;

crypto::rns_rlwe_param_set make_params() { return crypto::he_rns_rlwe_level(20, 3, 32); }

runtime::runtime_options make_options(const crypto::rns_rlwe_param_set& p) {
  return runtime::runtime_options::for_rns_param_set(p.level_set())
      .with_backend(runtime::backend_kind::sram)
      .with_topology(kChannels, /*banks_per_channel=*/1, /*subarrays=*/4)
      .with_threads(kChannels);
}

std::vector<u64> random_bits(common::xoshiro256ss& rng, u64 n) {
  std::vector<u64> m(n);
  for (auto& b : m) b = rng() & 1ULL;
  return m;
}

std::vector<u64> negacyclic_mod2(const std::vector<u64>& a, const std::vector<u64>& b) {
  std::vector<u64> out(a.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) out[(i + j) % a.size()] ^= a[i] & b[j];
  }
  return out;
}

struct fixture {
  std::unique_ptr<runtime::context> ctx;
  std::unique_ptr<rr::scheme> sch;
  // The forwarding backend under ctx, which sums the array statistics of
  // every dispatch.
  timed_backend* backend = nullptr;
  double setup_s = 0.0;
};

struct op_outcome {
  double latency_us = 0.0;
  bool ok = true;
  std::string error;
  rr::ciphertext ct_a, ct_b, product;
};

// One multiply.  Correct means the decryption equals the GF(2) product
// and no dispatch of the op broke the lossless-shift envelope.
op_outcome run_op(fixture& f, common::xoshiro256ss& rng, u64 n, span_log* log, u64 op,
                  u64 root) {
  op_outcome out;
  const auto a = random_bits(rng, n);
  const auto b = random_bits(rng, n);
  std::vector<u64> dec;
  const u64 violations = f.backend->totals().lossless_shift_violations;
  const auto t0 = host_clock::now();
  {
    scoped_span s(log, "crypto.encrypt", op, root);
    out.ct_a = f.sch->encrypt(a);
  }
  {
    scoped_span s(log, "crypto.encrypt", op, root);
    out.ct_b = f.sch->encrypt(b);
  }
  {
    scoped_span s(log, "crypto.multiply", op, root);
    out.product = f.sch->multiply(out.ct_a, out.ct_b);
  }
  {
    scoped_span s(log, "crypto.decrypt", op, root);
    dec = f.sch->decrypt(out.product);
  }
  out.latency_us = us_between(t0, host_clock::now());
  if (dec != negacyclic_mod2(a, b)) {
    out.ok = false;
    out.error = "he-mul-sram: decryption disagrees with the GF(2) oracle";
  }
  f.ctx->sync();  // every dispatch the op issued has now been summed
  if (f.backend->totals().lossless_shift_violations != violations) {
    out.ok = false;
    out.error = "he-mul-sram: a dispatch violated the lossless-shift envelope";
  }
  return out;
}

// Construction, keygen (public and evaluation keys) and one warm-up op.
// The real backend sits under a forwarding one; `log` (traced mode) makes
// it record a span per dispatch.
fixture set_up(const crypto::rns_rlwe_param_set& params, const runtime::runtime_options& opts,
               u64 key_seed, common::xoshiro256ss& rng, span_log* log) {
  fixture f;
  const auto t0 = host_clock::now();
  auto backend = std::make_unique<timed_backend>(runtime::make_backend(opts), log);
  f.backend = backend.get();
  f.ctx = std::make_unique<runtime::context>(opts, std::move(backend));
  f.sch = std::make_unique<rr::scheme>(*f.ctx, params, key_seed);
  const auto warm = run_op(f, rng, params.n, nullptr, 0, 0);
  if (!warm.ok) throw std::runtime_error(warm.error + " (warm-up)");
  f.setup_s = us_between(t0, host_clock::now()) * 1e-6;
  return f;
}

}  // namespace

void run_he_mul_sram(const options& o, report& rep) {
  const auto params = make_params();
  const auto opts = make_options(params);
  const double ghz = opts.array.tech.freq_ghz;  // the array clock, 3.8 GHz
  const u64 key_seed = o.seed * 0x9e3779b97f4a7c15ULL + 1;
  common::xoshiro256ss setup_rng(o.seed ^ 0x5e7u);
  common::xoshiro256ss rng(o.seed);

  const auto run = untraced_closed_loop(
      o, kSpec, rep, [&] { return set_up(params, opts, key_seed, setup_rng, nullptr); },
      [&](fixture& f) {
        const auto before = f.ctx->stats();
        const auto out = run_op(f, rng, params.n, nullptr, 0, 0);
        const auto after = f.ctx->stats();
        if (!out.ok) rep.fail(out.error);
        return op_sample{0.0, out.latency_us, out.ok,
                         static_cast<double>(after.wall_cycles - before.wall_cycles) / (ghz * 1e3),
                         after.energy_nj - before.energy_nj};
      });
  if (!o.trace) {
    report_end_to_end(rep, run);
    return;
  }

  // Traced window: spans around each scheme call, the forwarding backend
  // on every limb dispatch, the engine/executor probe on the op's limb-0
  // residues, and the runtime's virtual-timeline trace.
  layer_metrics lm;
  span_log log;
  auto traced_opts = opts;
  traced_opts.with_tracing(1u << 14);
  fixture f = set_up(params, traced_opts, key_seed, setup_rng, &log);
  const u64 q0 = params.primes.front();
  sram_probe probe(opts, q0);
  const math::ntt_tables limb0(params.n, q0, true);

  std::vector<double> lat, model_cycles, isa_ns, isa_ms, engine_ms;
  std::vector<op_outcome> samples;
  const auto window_start = f.ctx->stats();
  const auto array_start = f.backend->totals();
  const auto t = traced_closed_loop(o, kSpec, log, rep, [&](u64 op, u64 root) {
    const auto before = f.ctx->stats();
    auto out = run_op(f, rng, params.n, &log, op, root);
    const auto after = f.ctx->stats();
    if (!out.ok) {
      rep.fail(out.error);
      return false;
    }
    lat.push_back(out.latency_us);
    model_cycles.push_back(static_cast<double>(after.wall_cycles - before.wall_cycles));

    // Beside: the engine/executor probe on the two ciphertexts' limb-0
    // residues.
    std::vector<std::vector<u64>> polys{out.ct_a.c0.residues[0], out.ct_a.c1.residues[0],
                                        out.ct_b.c0.residues[0], out.ct_b.c1.residues[0]};
    std::vector<std::vector<u64>> golden = polys;
    for (auto& p : golden) math::ntt_forward(p, limb0);
    const auto p = probe.run(polys, golden, &log, op, root);
    if (!p.outputs_ok) rep.fail("he-mul-sram: engine/executor probe disagrees with golden");
    isa_ns.push_back(p.isa_us * 1e3 / static_cast<double>(p.isa_ops));
    isa_ms.push_back(p.isa_us * 1e-3);
    engine_ms.push_back(p.engine_us * 1e-3);
    if (samples.size() < kSamples) samples.push_back(std::move(out));
    return true;
  });
  f.ctx->sync();
  const auto window_end = f.ctx->stats();
  const auto array_end = f.backend->totals();

  // Beside, after the window: the noise budget of the sampled products,
  // and the rns primitives on the scheme's basis and ciphertexts.
  std::vector<double> noise, rns_polymul, rns_rescale, rns_extend;
  rns::rns_engine eng(*f.ctx, f.sch->basis_at(0));
  for (const auto& sample : samples) {
    noise.push_back(static_cast<double>(f.sch->noise_budget_bits(sample.product)));
    const auto& ct = sample.ct_a;
    auto t0 = host_clock::now();
    const auto prod = eng.polymul(ct.c0, ct.c1);
    auto t1 = host_clock::now();
    log.record("beside.rns.polymul", 0, 0, t0, t1);
    rns_polymul.push_back(us_between(t0, t1) * 1e-3);
    for (std::size_t l = 0; l < prod.residues.size(); ++l) {
      const u64 q = eng.basis().primes()[l];
      if (prod.residues[l] != math::schoolbook_negacyclic(ct.c0.residues[l], ct.c1.residues[l], q)) {
        rep.fail("he-mul-sram: rns polymul disagrees with the schoolbook product");
      }
    }
    t0 = host_clock::now();
    (void)eng.rescale(ct.c0);
    t1 = host_clock::now();
    log.record("beside.rns.rescale", 0, 0, t0, t1);
    rns_rescale.push_back(us_between(t0, t1) * 1e-3);
    t0 = host_clock::now();
    (void)eng.base_extend(ct.c0, f.sch->union_basis_at(0));
    t1 = host_clock::now();
    log.record("beside.rns.base_extend", 0, 0, t0, t1);
    rns_extend.push_back(us_between(t0, t1) * 1e-3);
  }
  if (f.backend->totals().lossless_shift_violations != 0) {
    rep.fail("he-mul-sram: a dispatch violated the lossless-shift envelope");
  }

  const auto backend_run = t.union_of(log, "backend.run");
  std::vector<double> crypto_self;
  for (std::size_t i = 0; i < t.ok_ids.size(); ++i) {
    crypto_self.push_back((lat[i] - backend_run[i]) * 1e-3);
  }
  std::vector<double> enc_ms = t.sum_of(log, "crypto.encrypt");
  for (auto& v : enc_ms) v *= 0.5e-3;  // two encryptions per op
  std::vector<double> mul_ms = t.sum_of(log, "crypto.multiply");
  for (auto& v : mul_ms) v *= 1e-3;
  std::vector<double> dec_ms = t.sum_of(log, "crypto.decrypt");
  for (auto& v : dec_ms) v *= 1e-3;
  const u64 hits = window_end.operand_cache_hits - window_start.operand_cache_hits;
  const u64 misses = window_end.operand_cache_misses - window_start.operand_cache_misses;

  lm.set("isa.ns_per_array_op", median(isa_ns));
  lm.set("isa.run_ms", median(isa_ms));
  set_sram_metrics(lm, array_start, array_end, static_cast<double>(t.ops));
  lm.set("bpntt.model_cycles", mean(model_cycles));
  lm.set("bpntt.compile_ms", probe.compile_us() * 1e-3);
  lm.set("bpntt.run_forward_ms", median(engine_ms));
  lm.set("runtime.jobs_per_batch",
         static_cast<double>(window_end.jobs_completed - window_start.jobs_completed) /
             static_cast<double>(std::max<u64>(window_end.batches - window_start.batches, 1)));
  lm.set("backend.run_us", median(backend_run));
  lm.set("crypto.encrypt_ms", median(enc_ms));
  lm.set("crypto.multiply_ms", median(mul_ms));
  lm.set("crypto.decrypt_ms", median(dec_ms));
  lm.set("crypto.self_ms", median(crypto_self));
  lm.set("crypto.noise_budget_bits", median(noise));
  lm.set("rns.polymul_ms", median(rns_polymul));
  lm.set("rns.rescale_ms", median(rns_rescale));
  lm.set("rns.base_extend_ms", median(rns_extend));
  lm.set("residency.hit_ratio",
         static_cast<double>(hits) / static_cast<double>(std::max<u64>(hits + misses, 1)));
  lm.set("residency.evictions",
         static_cast<double>(window_end.residency_evictions - window_start.residency_evictions));
  lm.set("residency.moves",
         static_cast<double>(window_end.residency_moves - window_start.residency_moves));
  lm.set("residency.rows_peak", static_cast<double>(window_end.resident_rows_peak));
  lm.set("residency.affinity_hits", static_cast<double>(window_end.residency_affinity_hits -
                                                        window_start.residency_affinity_hits));
  lm.set("telemetry.overhead_ratio", run.mean_ok_latency_us() / mean(lat));

  const auto trace_path = finish_traced(o, rep, lm, *f.ctx);
  // Limb overlap over the traced window: summed dispatch extent on every
  // bank over the makespan it advanced (1 = serial, up to kChannels).
  const auto extent = scan_chrome_trace(trace_path, window_start.wall_cycles, window_end.wall_cycles);
  lm.set("scheduler.limb_overlap",
         static_cast<double>(extent.span_cycles) /
             static_cast<double>(std::max<u64>(window_end.wall_cycles - window_start.wall_cycles, 1)));
  emit_traced(o, rep, lm, log);
}

}  // namespace perfbench
