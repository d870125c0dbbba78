// ntt-batch-sram: the paper's Table I anchor.  A closed loop with one
// caller; each op is one wave-filling batch of 16 forward 256-point NTTs at
// q = 12289, k = 16 on the sram backend with one compute subarray.  Host
// time is almost all simulator, so microcode and simulator changes show
// here and runtime changes do not.  Threads: the caller + 1 pool worker.
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common/xoshiro.h"
#include "nttmath/ntt.h"
#include "runtime/context.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace bpntt;

// One busy host thread, whose speed follows a bimodal host (README.md,
// "Host noise and bounds"): nearly every run holds slow-mode blocks and
// many hold no fast ones, so the block metrics are the worse decile, which
// stays in the slow mode, and the tail is p90 of the whole window.
constexpr workload_spec kSpec{"ntt-batch-sram", 90.0, 20, 100, 200'000.0, 9, "simulated",
                              /*traced_min_ops=*/3, /*traced_max_ops=*/1000,
                              /*window_tail=*/true, /*block_pct=*/90.0};
// The paper's BP-NTT 16-bit latency (Table I), the anchor of bpntt.paper_gap_ratio.
constexpr double kPaperLatencyUs = 61.9;

runtime::runtime_options make_options() {
  return runtime::runtime_options()
      .with_ring(256, 12289, 16)
      .with_backend(runtime::backend_kind::sram)
      .with_subarrays(2)
      .with_threads(1);
}

using batch = std::vector<std::vector<u64>>;

batch random_batch(common::xoshiro256ss& rng, unsigned lanes, u64 n, u64 q) {
  batch b(lanes, std::vector<u64>(n));
  for (auto& p : b) {
    for (auto& c : p) c = rng.below(q);
  }
  return b;
}

batch golden_forward(const batch& in, const math::ntt_tables& t) {
  batch out = in;
  for (auto& p : out) math::ntt_forward(p, t);
  return out;
}

struct op_outcome {
  double latency_us = 0.0;
  bool ok = true;
  std::string error;
  u64 wall_cycles = 0;
  sram::op_stats stats;
  std::size_t jobs_in_batch = 0;
};

// One op through the runtime's public surface: submit the batch, flush,
// wait for every job.  Spans (traced mode only) wrap each layer call.
op_outcome run_op(runtime::context& ctx, const batch& in, const batch& golden, span_log* log,
                  u64 op, u64 root) {
  op_outcome out;
  std::vector<runtime::job_id> ids;
  std::vector<runtime::job_result> results;
  const auto t0 = host_clock::now();
  {
    scoped_span s(log, "runtime.submit", op, root);
    for (const auto& p : in) ids.push_back(ctx.submit(runtime::ntt_job{.coeffs = p}));
  }
  {
    scoped_span s(log, "runtime.flush", op, root);
    ctx.flush();
  }
  {
    scoped_span s(log, "runtime.wait", op, root);
    for (auto id : ids) results.push_back(ctx.wait(id));
  }
  out.latency_us = us_between(t0, host_clock::now());

  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].outputs.size() != 1 || results[i].outputs[0] != golden[i]) {
      out.ok = false;
      out.error = "ntt-batch-sram: job " + std::to_string(i) + " disagrees with golden NTT";
    }
  }
  // Every job reports its own dispatch's statistics, so a batch the
  // runtime split is checked dispatch by dispatch.
  for (const auto& r : results) {
    if (r.op_stats.lossless_shift_violations != 0) {
      out.ok = false;
      out.error = "ntt-batch-sram: batch violated the lossless-shift envelope";
    }
  }
  const auto& r = results.front();
  out.wall_cycles = r.wall_cycles;
  out.stats = r.op_stats;
  out.jobs_in_batch = r.jobs_in_batch;
  return out;
}

struct fixture {
  std::unique_ptr<runtime::context> ctx;
  double setup_s = 0.0;
};

// Construction plus one warm-up batch, up to the first timed op.
fixture set_up(const runtime::runtime_options& opts, common::xoshiro256ss& rng,
               const math::ntt_tables& t, std::unique_ptr<runtime::backend> custom) {
  fixture f;
  const auto t0 = host_clock::now();
  f.ctx = custom ? std::make_unique<runtime::context>(opts, std::move(custom))
                 : std::make_unique<runtime::context>(opts);
  const auto warm = random_batch(rng, f.ctx->wave_width(), opts.params.n, opts.params.q);
  const auto w = run_op(*f.ctx, warm, golden_forward(warm, t), nullptr, 0, 0);
  if (!w.ok) throw std::runtime_error(w.error);
  f.setup_s = us_between(t0, host_clock::now()) * 1e-6;
  return f;
}

}  // namespace

void run_ntt_batch_sram(const options& o, report& rep) {
  // The traced run sets the pool thread's dispatch against the same batch
  // transformed beside it on the caller thread.  On one CPU both run at
  // the same host speed; across two, one may run in the host's slow mode
  // and the other in its fast one (README.md, "Host noise and bounds"),
  // which made backend.self_us negative.
  if (o.trace && !pin_to_current_cpu()) rep.fail("ntt-batch-sram: cannot pin to one CPU");
  const auto opts = make_options();
  const math::ntt_tables tables(opts.params.n, opts.params.q, true);
  const double ghz = opts.array.tech.freq_ghz;  // the array clock, 3.8 GHz
  common::xoshiro256ss setup_rng(o.seed ^ 0x5e7u);
  common::xoshiro256ss rng(o.seed);

  const auto run = untraced_closed_loop(
      o, kSpec, rep, [&] { return set_up(opts, setup_rng, tables, nullptr); },
      [&](fixture& f) {
        const auto in = random_batch(rng, f.ctx->wave_width(), opts.params.n, opts.params.q);
        const auto out = run_op(*f.ctx, in, golden_forward(in, tables), nullptr, 0, 0);
        if (!out.ok) rep.fail(out.error);
        return op_sample{0.0, out.latency_us, out.ok,
                         static_cast<double>(out.wall_cycles) / (ghz * 1e3),
                         out.stats.energy_pj * 1e-3};
      });
  if (!o.trace) {
    report_end_to_end(rep, run);
    return;
  }

  // Traced window: host-clock spans around every layer call, the
  // forwarding backend, the engine/executor probe beside each op, and the
  // runtime's own virtual-timeline trace.
  layer_metrics lm;
  span_log log;
  auto traced_opts = opts;
  traced_opts.with_tracing(1u << 12);
  auto timed = std::make_unique<timed_backend>(runtime::make_backend(opts), &log);
  auto* backend = timed.get();
  fixture f = set_up(traced_opts, setup_rng, tables, std::move(timed));
  sram_probe probe(opts, opts.params.q);
  const unsigned lanes = f.ctx->wave_width();

  std::vector<double> lat, model_cycles, isa_ns, isa_ms, engine_ms, jobs_per_batch;
  const auto window_start = backend->totals();
  const auto t = traced_closed_loop(o, kSpec, log, rep, [&](u64 op, u64 root) {
    const auto in = random_batch(rng, lanes, opts.params.n, opts.params.q);
    const auto golden = golden_forward(in, tables);
    const auto out = run_op(*f.ctx, in, golden, &log, op, root);
    if (!out.ok) {
      rep.fail(out.error);
      return false;
    }
    lat.push_back(out.latency_us);
    model_cycles.push_back(static_cast<double>(out.wall_cycles));
    jobs_per_batch.push_back(static_cast<double>(out.jobs_in_batch));
    const auto p = probe.run(in, golden, &log, op, root);
    if (!p.outputs_ok) rep.fail("ntt-batch-sram: engine/executor probe disagrees with golden");
    isa_ns.push_back(p.isa_us * 1e3 / static_cast<double>(p.isa_ops));
    isa_ms.push_back(p.isa_us * 1e-3);
    engine_ms.push_back(p.engine_us * 1e-3);
    return true;
  });
  f.ctx->sync();

  // Per-layer self times: the op's latency splits into runtime (latency
  // minus the backend dispatch), backend (dispatch minus the engine
  // transforming the same batch), bpntt (engine minus the bare executor
  // run) and isa (the executor run).
  const auto backend_run = t.union_of(log, "backend.run");
  const auto submit = t.sum_of(log, "runtime.submit");
  const auto flush = t.sum_of(log, "runtime.flush");
  const auto wait = t.sum_of(log, "runtime.wait");
  std::vector<double> runtime_self, backend_self, bpntt_self, submit_per_job, wait_per_op;
  for (std::size_t i = 0; i < t.ok_ids.size(); ++i) {
    runtime_self.push_back(lat[i] - backend_run[i]);
    backend_self.push_back(backend_run[i] - engine_ms[i] * 1e3);
    bpntt_self.push_back((engine_ms[i] - isa_ms[i]) * 1e3);
    submit_per_job.push_back(submit[i] / lanes);
    wait_per_op.push_back(flush[i] + wait[i]);
  }

  lm.set("isa.ns_per_array_op", median(isa_ns));
  lm.set("isa.run_ms", median(isa_ms));
  set_sram_metrics(lm, window_start, backend->totals(), static_cast<double>(t.ops));
  lm.set("bpntt.model_cycles", mean(model_cycles));
  lm.set("bpntt.paper_gap_ratio", mean(model_cycles) / (ghz * 1e3) / kPaperLatencyUs);
  lm.set("bpntt.compile_ms", probe.compile_us() * 1e-3);
  lm.set("bpntt.run_forward_ms", median(engine_ms));
  lm.set("bpntt.self_us", median(bpntt_self));
  lm.set("runtime.submit_us", median(submit_per_job));
  lm.set("runtime.wait_us", median(wait_per_op));
  lm.set("runtime.self_us", median(runtime_self));
  lm.set("runtime.jobs_per_batch", mean(jobs_per_batch));
  lm.set("backend.run_us", median(backend_run));
  lm.set("backend.self_us", median(backend_self));
  lm.set("telemetry.overhead_ratio", run.mean_ok_latency_us() / mean(lat));

  (void)finish_traced(o, rep, lm, *f.ctx);
  emit_traced(o, rep, lm, log);
}

}  // namespace perfbench
