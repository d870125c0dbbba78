// The four workloads and the metric sets they report.
//
// --trace 0 reports every end-to-end metric (report_end_to_end); --trace 1
// reports every per-layer metric (layer_metrics::emit), zero where the
// workload does not run the layer.  README.md in this directory defines
// each metric, its clock, and which end-to-end metric each layer metric is
// expected to move on which workload.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"
#include "runtime/context.h"

namespace perfbench {

// Fixed per-workload parameters of the end-to-end report.
struct workload_spec {
  const char* name;
  // latency_tail_us is this percentile, taken within each block, or over
  // the whole window when window_tail is set; it has at least ten samples
  // beyond it on this benchmark's reference host (see README.md).
  double tail_pct;
  // The window is cut into this many equal blocks.  With several, each
  // end-to-end metric but the window tail, ok_ratio, setup_s, peak_rss_mb
  // and the simulated model metrics is taken over blocks, at the block
  // block_pct percent of the way from the best block to the worst.  The
  // shared host's speed moves in episodes of seconds (a fast and a slow
  // mode about 1.4x apart) that slow every block they touch; a change to
  // the program moves every block, the calm ones and the slow ones too.
  unsigned blocks;
  // Closed loops run at least this many ops.  Simulated model metrics are
  // means over exactly the first min_ops correct ops, so they repeat per
  // seed; backend-clock ones are the worse decile over blocks of the block
  // means, whatever block_pct is.
  u64 min_ops;
  // goodput_ops_per_s counts ops finished within this latency.
  double limit_us;
  // Set-ups timed per run (setup_s is their median).
  int setups;
  // Clock of model_latency_us / model_energy_nj: "simulated" (sram) or
  // "backend" (the cpu backend's measured kernel time).
  const char* model_clock;
  // A closed loop's traced window runs at least traced_min_ops ops and
  // stops at traced_max_ops, which keeps every runtime trace event inside
  // the recorder's rings (telemetry.events_dropped stays 0).
  u64 traced_min_ops = 0;
  u64 traced_max_ops = 0;
  // Take latency_tail_us over every op of the window instead of within
  // blocks, for blocks that hold too few ops for a tail.
  bool window_tail = false;
  // See blocks: 25 takes the better quartile, 90 the worse decile.
  double block_pct = 25.0;

  [[nodiscard]] bool simulated_model() const {
    return std::string_view(model_clock) == "simulated";
  }
};

// One attempted op of a measured window.
struct op_sample {
  double start_s = 0.0;     // from the start of the window
  double latency_us = 0.0;  // closed loops: call to return; open loop: due to completion
  bool ok = false;          // a correct result (failed, rejected and wrong ops are not)
  // Device latency (us) and energy (nJ) of the op in the backend's own
  // accounting.
  double model_us = 0.0;
  double model_nj = 0.0;
};

// One measured window of a workload, folded into per-block statistics as
// ops arrive (in start order), so the benchmark's own memory does not grow
// with the number of ops and peak_rss_mb stays the program's.  Only a
// window tail keeps every latency, on workloads of a few hundred ops.
class measured_run {
 public:
  // Open loop: throughput is ops per second of the arrival window.
  // Closed loop: ops per second of the caller's summed latency (generator
  // and oracle time excluded).  A closed loop may run past window_s to
  // reach min_ops; those ops fall into the last block.
  measured_run(const workload_spec& spec, double window_s, bool open_loop);

  void add(const op_sample& op);
  // Folds the open block; call once, after the last add().
  void finish();

  u64 attempted = 0;
  u64 failed = 0;
  std::vector<double> setup_s;  // one sample per set-up
  [[nodiscard]] double mean_ok_latency_us() const {
    return ok_ == 0 ? 0.0 : ok_latency_sum_us_ / static_cast<double>(ok_);
  }

 private:
  friend void report_end_to_end(report& rep, const measured_run& run);
  struct block_result {
    double tput, good, p50, tail, model_us, model_nj;
  };
  void close_block();

  const workload_spec& spec_;
  double block_s_;
  bool open_loop_;
  u64 ok_ = 0;
  double ok_latency_sum_us_ = 0.0;
  std::vector<block_result> blocks_;
  // The whole window's latencies (window_tail only) and the simulated
  // model sums over the first min_ops correct ops.
  std::vector<double> window_lat_;
  double prefix_us_ = 0.0, prefix_nj_ = 0.0;
  u64 prefix_n_ = 0;
  // The open block.
  unsigned current_ = 0;
  std::vector<double> lat_;
  double busy_s_ = 0.0;
  u64 within_ = 0;
  double dev_us_ = 0.0, dev_nj_ = 0.0;
  u64 dev_n_ = 0;
};

void report_end_to_end(report& rep, const measured_run& run);

// Run `op` back to back for `window_s` seconds and at least `min_ops`
// times, recording every attempt into `run`.  `op` returns its sample;
// the loop fills in start_s.
template <typename Op>
void closed_loop(double window_s, u64 min_ops, measured_run& run, Op&& op) {
  const auto start = host_clock::now();
  double elapsed = 0.0;
  while (run.attempted < min_ops || elapsed < window_s) {
    op_sample r = op();
    r.start_s = elapsed;
    run.add(r);
    elapsed = us_between(start, host_clock::now()) * 1e-6;
  }
  run.finish();
}

// The untraced window of a closed-loop workload, which is the whole run
// untraced and the traced run's baseline (30% of it) traced.  Times
// spec.setups set-ups (one when traced), tearing each down before timing
// the next, then runs `op(fixture)` on the last one back to back for the
// window and at least spec.min_ops times (spec.traced_min_ops when
// traced).  `set_up()` returns a fixture with `ctx` (the runtime context)
// and `setup_s`; `op` returns its sample.  No runtime trace event may be
// recorded.  Sets rep.attempted/failed from the window.
template <typename SetUp, typename Op>
measured_run untraced_closed_loop(const options& o, const workload_spec& spec, report& rep,
                                  SetUp&& set_up, Op&& op) {
  const double window_s = o.trace ? o.seconds * 0.3 : o.seconds;
  measured_run run(spec, window_s, /*open_loop=*/false);
  std::optional<decltype(set_up())> f;
  for (int i = 0; i < (o.trace ? 1 : spec.setups); ++i) {
    f.reset();
    f.emplace(set_up());
    run.setup_s.push_back(f->setup_s);
  }
  closed_loop(window_s, o.trace ? spec.traced_min_ops : spec.min_ops, run,
              [&] { return op(*f); });
  if (f->ctx->trace_stats().events_recorded != 0) {
    rep.fail(std::string(spec.name) + ": untraced run recorded runtime trace events");
  }
  rep.attempted = run.attempted;
  rep.failed = run.failed;
  return run;
}

// The ops of a traced window: how many ran, and the ids of those that
// succeeded, in order.
struct traced_ops {
  u64 ops = 0;
  std::vector<u64> ok_ids;

  // Per succeeded op, in ok_ids order: the summed duration of its `name`
  // spans, or the wall time their union covers (parallel dispatches on
  // several banks count once).
  [[nodiscard]] std::vector<double> sum_of(const span_log& log, const char* name) const;
  [[nodiscard]] std::vector<double> union_of(const span_log& log, const char* name) const;
};

// The traced window of a closed-loop workload: runs `op(id, root)` at
// least spec.traced_min_ops times, then on while under
// spec.traced_max_ops ops and 60% of the run's seconds.  Each op is
// wrapped in an "op" span under the reserved id `root`, which its layer
// spans name as parent, and is the log's current op while it runs, so the
// forwarding backend's spans land on it.  `op` returns false for a wrong
// or failed result, having called rep.fail.  Counts every op into
// rep.attempted/failed.
template <typename Op>
traced_ops traced_closed_loop(const options& o, const workload_spec& spec, span_log& log,
                              report& rep, Op&& op) {
  traced_ops t;
  const auto start = host_clock::now();
  while (t.ops < spec.traced_min_ops ||
         (t.ops < spec.traced_max_ops && us_between(start, host_clock::now()) < o.seconds * 0.6e6)) {
    const u64 id = ++t.ops;
    const u64 root = log.next_id();
    log.current_op.store(id);
    const auto t0 = host_clock::now();
    const bool ok = op(id, root);
    log.record("op", id, 0, t0, host_clock::now(), 0, root);
    log.current_op.store(0);
    ++rep.attempted;
    if (ok) {
      t.ok_ids.push_back(id);
    } else {
      ++rep.failed;
    }
  }
  return t;
}

// Every per-layer metric, in output order, with its unit and clock; the
// traced run fills what its workload measures and emits all of them.
class layer_metrics {
 public:
  layer_metrics();
  // Throws std::logic_error for a name not in the table.
  void set(const std::string& name, double value);
  void emit(report& rep) const;

 private:
  struct entry {
    std::string unit;
    std::string clock;
    double value = 0.0;
  };
  std::vector<std::string> order_;
  std::map<std::string, entry> table_;
};

// The sram.* metrics, per op, from the array statistics the forwarding
// backend summed at the start and end of a traced window.  The violation
// count is the whole run's (set-up included): it must be 0.
void set_sram_metrics(layer_metrics& lm, const bpntt::sram::op_stats& start,
                      const bpntt::sram::op_stats& end, double ops);

// The end of every traced run's runtime: export its virtual-timeline trace
// (Chrome trace-event JSON) into the output directory, check that the
// exported makespan equals the scheduler's wall_cycles, and record
// telemetry.events_dropped.  Returns the path of the exported trace.
std::string finish_traced(const options& o, report& rep, layer_metrics& lm,
                          const std::function<void(const std::string&)>& export_trace,
                          u64 wall_cycles, const bpntt::runtime::context::trace_probe& probe);
std::string finish_traced(const options& o, report& rep, layer_metrics& lm,
                          bpntt::runtime::context& ctx);
// Write the host-clock spans into the output directory and emit every
// per-layer metric.
void emit_traced(const options& o, report& rep, const layer_metrics& lm, const span_log& log);

void run_ntt_batch_sram(const options& o, report& rep);
void run_he_mul_sram(const options& o, report& rep);
void run_service_open_cpu(const options& o, report& rep);

}  // namespace perfbench
