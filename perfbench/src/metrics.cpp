#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "workloads.h"

namespace perfbench {

measured_run::measured_run(const workload_spec& spec, double window_s, bool open_loop)
    : spec_(spec), block_s_(window_s / spec.blocks), open_loop_(open_loop) {}

void measured_run::add(const op_sample& op) {
  const auto idx = std::min(static_cast<unsigned>(op.start_s / block_s_), spec_.blocks - 1);
  while (current_ < idx) close_block();
  ++attempted;
  busy_s_ += op.latency_us * 1e-6;
  if (!op.ok) {
    ++failed;
    return;
  }
  ++ok_;
  ok_latency_sum_us_ += op.latency_us;
  lat_.push_back(op.latency_us);
  if (spec_.window_tail) window_lat_.push_back(op.latency_us);
  within_ += op.latency_us <= spec_.limit_us ? 1 : 0;
  if (!spec_.simulated_model()) {
    dev_us_ += op.model_us;
    dev_nj_ += op.model_nj;
    ++dev_n_;
  } else if (prefix_n_ < spec_.min_ops) {
    prefix_us_ += op.model_us;
    prefix_nj_ += op.model_nj;
    ++prefix_n_;
  }
}

void measured_run::finish() {
  while (current_ < spec_.blocks) close_block();
}

void measured_run::close_block() {
  if (!lat_.empty()) {
    const double denom = open_loop_ ? block_s_ : busy_s_;
    const double n = static_cast<double>(std::max<u64>(dev_n_, 1));
    blocks_.push_back({static_cast<double>(lat_.size()) / denom,
                       static_cast<double>(within_) / denom, percentile(lat_, 50.0),
                       percentile(lat_, spec_.tail_pct), dev_us_ / n, dev_nj_ / n});
  }
  ++current_;
  lat_.clear();
  busy_s_ = 0.0;
  within_ = 0;
  dev_us_ = dev_nj_ = 0.0;
  dev_n_ = 0;
}

std::vector<double> traced_ops::sum_of(const span_log& log, const char* name) const {
  const auto per_op = log.per_op_sum(name, ops + 1);
  std::vector<double> out;
  for (u64 id : ok_ids) out.push_back(per_op[id]);
  return out;
}

std::vector<double> traced_ops::union_of(const span_log& log, const char* name) const {
  const auto per_op = log.per_op_union(name, ops + 1);
  std::vector<double> out;
  for (u64 id : ok_ids) out.push_back(per_op[id]);
  return out;
}

void report_end_to_end(report& rep, const measured_run& run) {
  // The block block_pct percent of the way from the best to the worst
  // (see workload_spec::blocks), whichever way is better.
  const auto over_blocks = [&run](double measured_run::block_result::*field, bool higher_better,
                                  double pct) {
    const double sign = higher_better ? -1.0 : 1.0;
    std::vector<double> v;
    for (const auto& b : run.blocks_) v.push_back(sign * (b.*field));
    return sign * percentile(v, pct);
  };
  const double pct = run.spec_.block_pct;
  using br = measured_run::block_result;
  rep.add("ops_per_s", over_blocks(&br::tput, true, pct), "1/s", "host");
  rep.add("latency_p50_us", over_blocks(&br::p50, false, pct), "us", "host");
  rep.add("latency_tail_us",
          run.spec_.window_tail ? percentile(run.window_lat_, run.spec_.tail_pct)
                                : over_blocks(&br::tail, false, pct),
          "us", "host");
  rep.add("goodput_ops_per_s", over_blocks(&br::good, true, pct), "1/s", "host");
  rep.add("ok_ratio",
          static_cast<double>(run.attempted - run.failed) /
              static_cast<double>(std::max<u64>(run.attempted, 1)),
          "ratio", "count");
  if (run.spec_.simulated_model()) {
    const double n = static_cast<double>(std::max<u64>(run.prefix_n_, 1));
    rep.add("model_latency_us", run.prefix_us_ / n, "us", run.spec_.model_clock);
    rep.add("model_energy_nj", run.prefix_nj_ / n, "nJ", run.spec_.model_clock);
  } else {
    // The cpu kernel's measured time follows the speed mode of the one CPU
    // it runs on, like ntt-batch-sram's batches, whatever the workload's
    // latencies do: take the worse decile, which stays in the slow mode.
    constexpr double kKernelPct = 90.0;
    rep.add("model_latency_us", over_blocks(&br::model_us, false, kKernelPct), "us",
            run.spec_.model_clock);
    rep.add("model_energy_nj", over_blocks(&br::model_nj, false, kKernelPct), "nJ",
            run.spec_.model_clock);
  }
  rep.add("setup_s", median(run.setup_s), "s", "host");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", "host");
  std::printf("workload %s: %llu ops, %u blocks, tail = p%g %s, goodput limit = %g us\n",
              run.spec_.name, static_cast<unsigned long long>(run.attempted), run.spec_.blocks,
              run.spec_.tail_pct, run.spec_.window_tail ? "of the window" : "within blocks",
              run.spec_.limit_us);
}

namespace {

struct layer_def {
  const char* name;
  const char* unit;
  const char* clock;
};

// Per-op values unless the name says otherwise (per job, per call, per
// array op, or a ratio over the whole traced window).
constexpr layer_def kLayers[] = {
    {"isa.ns_per_array_op", "ns", "host"},
    {"isa.run_ms", "ms", "host"},
    {"sram.binary_ops", "count", "count"},
    {"sram.pair_ops", "count", "count"},
    {"sram.copy_ops", "count", "count"},
    {"sram.shift_ops", "count", "count"},
    {"sram.check_ops", "count", "count"},
    {"sram.energy_pj", "pJ", "simulated"},
    {"sram.lossless_shift_violations", "count", "count"},
    {"bpntt.model_cycles", "cycles", "simulated"},
    {"bpntt.paper_gap_ratio", "ratio", "simulated"},
    {"bpntt.compile_ms", "ms", "host"},
    {"bpntt.run_forward_ms", "ms", "host"},
    {"bpntt.self_us", "us", "host"},
    {"runtime.submit_us", "us", "host"},
    {"runtime.wait_us", "us", "host"},
    {"runtime.self_us", "us", "host"},
    {"runtime.jobs_per_batch", "jobs", "count"},
    {"backend.run_us", "us", "host"},
    {"backend.self_us", "us", "host"},
    {"nttmath.kernel_us", "us", "host"},
    {"service.submit_us", "us", "host"},
    {"service.queue_wait_p50_us", "us", "host"},
    {"service.queue_wait_p99_us", "us", "host"},
    {"service.self_us", "us", "host"},
    {"service.rejected", "count", "count"},
    {"service.generator_lag_us", "us", "host"},
    {"scheduler.groups_merged", "count", "count"},
    {"scheduler.preemption_yields", "count", "count"},
    {"scheduler.deadline_miss_ratio", "ratio", "backend"},
    {"scheduler.limb_overlap", "ratio", "simulated"},
    {"residency.hit_ratio", "ratio", "count"},
    {"residency.evictions", "count", "count"},
    {"residency.moves", "count", "count"},
    {"residency.rows_peak", "rows", "count"},
    {"residency.affinity_hits", "count", "count"},
    {"crypto.encrypt_ms", "ms", "host"},
    {"crypto.multiply_ms", "ms", "host"},
    {"crypto.decrypt_ms", "ms", "host"},
    {"crypto.self_ms", "ms", "host"},
    {"crypto.noise_budget_bits", "bits", "count"},
    {"rns.polymul_ms", "ms", "host"},
    {"rns.rescale_ms", "ms", "host"},
    {"rns.base_extend_ms", "ms", "host"},
    {"telemetry.overhead_ratio", "ratio", "host"},
    {"telemetry.events_dropped", "count", "count"},
};

}  // namespace

layer_metrics::layer_metrics() {
  for (const auto& d : kLayers) {
    order_.emplace_back(d.name);
    table_[d.name] = entry{d.unit, d.clock, 0.0};
  }
}

void layer_metrics::set(const std::string& name, double value) {
  auto it = table_.find(name);
  if (it == table_.end()) throw std::logic_error("perfbench: unknown layer metric " + name);
  it->second.value = value;
}

void layer_metrics::emit(report& rep) const {
  for (const auto& name : order_) {
    const auto& e = table_.at(name);
    rep.add(name, e.value, e.unit, e.clock);
  }
}

void set_sram_metrics(layer_metrics& lm, const bpntt::sram::op_stats& start,
                      const bpntt::sram::op_stats& end, double ops) {
  const auto per_op = [ops](u64 a, u64 b) { return static_cast<double>(b - a) / ops; };
  lm.set("sram.binary_ops", per_op(start.binary_ops, end.binary_ops));
  lm.set("sram.pair_ops", per_op(start.pair_ops, end.pair_ops));
  lm.set("sram.copy_ops", per_op(start.copy_ops, end.copy_ops));
  lm.set("sram.shift_ops", per_op(start.shift_ops, end.shift_ops));
  lm.set("sram.check_ops", per_op(start.check_ops, end.check_ops));
  lm.set("sram.energy_pj", (end.energy_pj - start.energy_pj) / ops);
  lm.set("sram.lossless_shift_violations", static_cast<double>(end.lossless_shift_violations));
}

std::string finish_traced(const options& o, report& rep, layer_metrics& lm,
                          const std::function<void(const std::string&)>& export_trace,
                          u64 wall_cycles, const bpntt::runtime::context::trace_probe& probe) {
  std::filesystem::create_directories(o.out_dir);
  const std::string stem = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
  export_trace(stem + ".trace.json");
  const auto extent = scan_chrome_trace(stem + ".trace.json", 0, ~u64{0});
  if (!probe.enabled || probe.events_recorded == 0) {
    rep.fail(o.workload + ": traced run recorded no runtime trace events");
  }
  if (!extent.read_ok || extent.makespan != wall_cycles) {
    rep.fail(o.workload + ": exported trace makespan " + std::to_string(extent.makespan) +
             " != scheduler wall_cycles " + std::to_string(wall_cycles));
  }
  lm.set("telemetry.events_dropped", static_cast<double>(probe.events_dropped));
  std::printf("trace: %s.trace.json (%llu events, %llu dropped)\n", stem.c_str(),
              static_cast<unsigned long long>(probe.events_recorded),
              static_cast<unsigned long long>(probe.events_dropped));
  return stem + ".trace.json";
}

std::string finish_traced(const options& o, report& rep, layer_metrics& lm,
                          bpntt::runtime::context& ctx) {
  ctx.sync();
  return finish_traced(
      o, rep, lm, [&ctx](const std::string& path) { ctx.export_trace(path); },
      ctx.stats().wall_cycles, ctx.trace_stats());
}

void emit_traced(const options& o, report& rep, const layer_metrics& lm, const span_log& log) {
  const std::string path =
      o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) + ".spans.json";
  log.write_json(path);
  std::printf("spans: %s\n", path.c_str());
  lm.emit(rep);
}

}  // namespace perfbench
