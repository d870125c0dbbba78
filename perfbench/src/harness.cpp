#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bpntt/compiler.h"
#include "isa/executor.h"

namespace perfbench {

using namespace bpntt;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

void report::add(const std::string& name, double value, const std::string& unit,
                 const std::string& clock) {
  metrics_.push_back({name, value, unit, clock});
}

void report::fail(const std::string& why) {
  if (errors_.size() < 16) errors_.push_back(why);
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void report::print() const {
  for (const auto& e : errors_) std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
  std::printf("%-36s %18s  %-8s %s\n", "metric", "value", "unit", "clock");
  for (const auto& m : metrics_) {
    std::printf("%-36s %18.6g  %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.clock.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void span_log::record(const char* name, u64 op, u64 parent, host_clock::time_point start,
                      host_clock::time_point end, u64 jobs, u64 id) {
  span s;
  s.name = name;
  s.id = id != 0 ? id : next_id();
  s.op = op;
  s.parent = parent;
  s.start_us = us_between(epoch_, start);
  s.end_us = us_between(epoch_, end);
  s.jobs = jobs;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(s);
}

std::vector<span> span_log::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::vector<double> span_log::per_op_sum(const char* name, u64 ops) const {
  std::vector<double> out(ops, 0.0);
  const std::string want(name);
  for (const auto& s : spans()) {
    if (s.op < ops && want == s.name) out[s.op] += s.dur_us();
  }
  return out;
}

std::vector<double> span_log::per_op_union(const char* name, u64 ops) const {
  std::vector<std::vector<std::pair<double, double>>> by_op(ops);
  const std::string want(name);
  for (const auto& s : spans()) {
    if (s.op < ops && want == s.name) by_op[s.op].emplace_back(s.start_us, s.end_us);
  }
  std::vector<double> out(ops, 0.0);
  for (u64 op = 0; op < ops; ++op) {
    auto& iv = by_op[op];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [s, e] : iv) {
      if (s > hi) {
        if (hi > lo) covered += hi - lo;
        lo = s;
        hi = e;
      } else {
        hi = std::max(hi, e);
      }
    }
    if (hi > lo) covered += hi - lo;
    out[op] = covered;
  }
  return out;
}

void span_log::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write spans to " + path);
  out << "[\n";
  const auto all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"id\":%llu,\"op\":%llu,\"parent\":%llu,"
                  "\"start_us\":%.3f,\"end_us\":%.3f,\"jobs\":%llu}",
                  s.name, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.op),
                  static_cast<unsigned long long>(s.parent), s.start_us, s.end_us,
                  static_cast<unsigned long long>(s.jobs));
    out << buf << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

timed_backend::timed_backend(std::unique_ptr<runtime::backend> inner, span_log* log)
    : inner_(std::move(inner)), log_(log) {}

void timed_backend::attach_inner() {
  std::call_once(attached_, [this] {
    inner_->attach_executor(pool_);
    inner_->attach_residency(resman_);
    inner_->attach_recorder(recorder_);
  });
}

template <typename F>
runtime::batch_result timed_backend::timed(std::size_t jobs, F&& call) {
  attach_inner();
  const auto t0 = host_clock::now();
  runtime::batch_result r = call();
  const auto t1 = host_clock::now();
  if (log_ != nullptr) {
    log_->record("backend.run", log_->current_op.load(std::memory_order_relaxed), 0, t0, t1, jobs);
  }
  std::lock_guard<std::mutex> lk(mu_);
  totals_ += r.stats;
  return r;
}

runtime::batch_result timed_backend::run_ntt(const std::vector<std::vector<u64>>& polys,
                                             core::transform_dir dir,
                                             const runtime::dispatch_hints& hints) {
  return timed(polys.size(), [&] { return inner_->run_ntt(polys, dir, hints); });
}

runtime::batch_result timed_backend::run_polymul(const std::vector<core::polymul_pair>& pairs,
                                                 const runtime::dispatch_hints& hints) {
  return timed(pairs.size(), [&] { return inner_->run_polymul(pairs, hints); });
}

runtime::batch_result timed_backend::run_rescale(
    const std::vector<runtime::rns_rescale_job>& jobs, const runtime::dispatch_hints& hints) {
  return timed(jobs.size(), [&] { return inner_->run_rescale(jobs, hints); });
}

runtime::batch_result timed_backend::run_base_extend(
    const std::vector<runtime::rns_base_extend_job>& jobs,
    const runtime::dispatch_hints& hints) {
  return timed(jobs.size(), [&] { return inner_->run_base_extend(jobs, hints); });
}

sram::op_stats timed_backend::totals() const {
  std::lock_guard<std::mutex> lk(mu_);
  return totals_;
}

namespace {

core::ntt_params probe_params(const runtime::runtime_options& opts, u64 q) {
  core::ntt_params p = opts.params;
  p.q = q;
  return p;
}

}  // namespace

sram_probe::sram_probe(const runtime::runtime_options& opts, u64 q)
    : engine_(opts.array, probe_params(opts, q)) {
  const core::microcode_compiler compiler(engine_.params(), engine_.layout(),
                                          opts.array.microcode);
  const auto t0 = host_clock::now();
  forward_ = compiler.compile_forward(engine_.plan());
  compile_us_ = us_between(t0, host_clock::now());
  (void)engine_.run_forward();  // fills the engine's own program cache
}

sram_probe_result sram_probe::run(const std::vector<std::vector<u64>>& polys,
                                  const std::vector<std::vector<u64>>& golden, span_log* log,
                                  u64 op, u64 parent) {
  sram_probe_result r;
  const unsigned lanes = std::min<unsigned>(engine_.lanes(), static_cast<unsigned>(polys.size()));
  const u64 n = engine_.params().n;

  auto t0 = host_clock::now();
  for (unsigned l = 0; l < lanes; ++l) engine_.load_polynomial(l, polys[l]);
  (void)engine_.run_forward();
  batch_out_.resize(lanes);
  for (unsigned l = 0; l < lanes; ++l) batch_out_[l] = engine_.read_polynomial(l, n);
  auto t1 = host_clock::now();
  for (unsigned l = 0; l < lanes; ++l) r.outputs_ok = r.outputs_ok && batch_out_[l] == golden[l];
  r.engine_us = us_between(t0, t1);
  if (log != nullptr) log->record("beside.bpntt.run_forward", op, parent, t0, t1, lanes);

  for (unsigned l = 0; l < lanes; ++l) engine_.load_polynomial(l, polys[l]);
  const isa::executor exec;
  t0 = host_clock::now();
  const auto run = exec.run(forward_, engine_.mutable_array());
  t1 = host_clock::now();
  r.isa_us = us_between(t0, t1);
  r.isa_ops = run.executed_ops;
  if (log != nullptr) log->record("beside.isa.run", op, parent, t0, t1, lanes);
  for (unsigned l = 0; l < lanes; ++l) {
    r.outputs_ok = r.outputs_ok && engine_.peek_polynomial(l, n) == golden[l];
  }
  return r;
}

trace_extent scan_chrome_trace(const std::string& path, u64 from_cycles, u64 to_cycles) {
  trace_extent t;
  std::ifstream in(path);
  if (!in) return t;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  const auto number_after = [&doc](std::size_t from, const char* key, std::size_t limit,
                                   u64& value) {
    const auto at = doc.find(key, from);
    if (at == std::string::npos || at > limit) return false;
    value = std::strtoull(doc.c_str() + at + std::char_traits<char>::length(key), nullptr, 10);
    return true;
  };
  std::size_t pos = 0;
  while ((pos = doc.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    const auto end = doc.find('}', pos);
    u64 ts = 0, dur = 0;
    if (!number_after(pos, "\"ts\":", end, ts) || !number_after(pos, "\"dur\":", end, dur)) {
      return t;
    }
    t.makespan = std::max(t.makespan, ts + dur);
    if (ts >= from_cycles && ts < to_cycles) {
      t.span_cycles += dur;
    }
    pos = end;
  }
  t.read_ok = true;
  return t;
}

}  // namespace perfbench
