// Shared pieces of the bpntt benchmark: command-line options, sample
// statistics, the host-clock span log of the traced mode, the metric
// report, and the probes that time a layer's public functions from
// outside (a forwarding backend, the microcode executor, the engine).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bpntt/engine.h"
#include "isa/program.h"
#include "runtime/backend.h"
#include "runtime/options.h"
#include "sram/stats.h"

namespace perfbench {

using u64 = std::uint64_t;
using host_clock = std::chrono::steady_clock;

struct options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
};

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
// the sample is empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

[[nodiscard]] inline double us_between(host_clock::time_point a, host_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

// Pins the calling thread, and so every thread it starts afterwards, to
// the CPU it is running on.  Returns false when the host refuses.
bool pin_to_current_cpu();


// The run's verdict and every metric it reports.  `clock` names what a
// value is measured on: "host" (wall time of this machine), "simulated"
// (modelled array cycles at the 3.8 GHz array clock), "backend" (the
// backend's own accounting — simulated on sram, the measured kernel time
// on cpu) or "count".
class report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& clock);
  // Records a wrong or failed result; the run then reports correct=false.
  void fail(const std::string& why);
  [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }

  u64 attempted = 0;
  u64 failed = 0;

  // A human-readable table (name, value, unit, clock) and then, as the
  // last line of standard output, the one-line JSON result.
  void print() const;

 private:
  struct metric {
    std::string name;
    double value;
    std::string unit;
    std::string clock;
  };
  std::vector<metric> metrics_;
  std::vector<std::string> errors_;
};

// One host-clock span of the traced mode.  Spans of one op share `op`;
// `parent` is the id of the span that caused it (0 for an op's root).
// Spans named "beside.*" time a lower layer's public function called
// directly on the op's inputs, next to the real call path.
struct span {
  const char* name = "";
  u64 id = 0;
  u64 op = 0;
  u64 parent = 0;
  double start_us = 0.0;  // from the log's epoch
  double end_us = 0.0;
  u64 jobs = 0;  // jobs the call carried (backend dispatches)
  [[nodiscard]] double dur_us() const noexcept { return end_us - start_us; }
};

// In-memory span store, safe to record into from any thread (the
// forwarding backend records on runtime pool threads).  Written out once,
// when the run ends.
class span_log {
 public:
  span_log() : epoch_(host_clock::now()) {}

  [[nodiscard]] u64 next_id() noexcept { return ids_.fetch_add(1, std::memory_order_relaxed); }
  // Records a finished span under a fresh id, or under `id` when a caller
  // reserved one with next_id() so children could name it as parent.
  void record(const char* name, u64 op, u64 parent, host_clock::time_point start,
              host_clock::time_point end, u64 jobs = 0, u64 id = 0);
  [[nodiscard]] std::vector<span> spans() const;
  // Sum of the durations of `name` spans per op id (index = op id).
  [[nodiscard]] std::vector<double> per_op_sum(const char* name, u64 ops) const;
  // Per op, the wall time covered by the union of `name` spans (parallel
  // dispatches on several banks count once).
  [[nodiscard]] std::vector<double> per_op_union(const char* name, u64 ops) const;
  void write_json(const std::string& path) const;

  // The op the generator is currently running, for spans recorded on
  // other threads (the forwarding backend).
  std::atomic<u64> current_op{0};

 private:
  host_clock::time_point epoch_;
  std::atomic<u64> ids_{1};
  mutable std::mutex mu_;
  std::vector<span> spans_;
};

// Times one call and records it as a span of `op` under `parent`.
class scoped_span {
 public:
  scoped_span(span_log* log, const char* name, u64 op, u64 parent)
      : log_(log), name_(name), op_(op), parent_(parent), start_(host_clock::now()) {}
  ~scoped_span() {
    if (log_ != nullptr) log_->record(name_, op_, parent_, start_, host_clock::now());
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  span_log* log_;
  const char* name_;
  u64 op_;
  u64 parent_;
  host_clock::time_point start_;
};

// A backend that forwards every dispatch to the real one, summing the
// array statistics it returns, and, given a span log, records each
// dispatch as a "backend.run" span.  It is installed through the
// context/service custom-backend constructors: with a log in the traced
// mode, and without one where an untraced run needs the summed statistics
// (he-mul-sram's lossless-shift check).
class timed_backend final : public bpntt::runtime::backend {
 public:
  timed_backend(std::unique_ptr<bpntt::runtime::backend> inner, span_log* log);

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] bpntt::runtime::backend_caps capabilities() const override {
    return inner_->capabilities();
  }
  bpntt::runtime::batch_result run_ntt(const std::vector<std::vector<u64>>& polys,
                                       bpntt::core::transform_dir dir,
                                       const bpntt::runtime::dispatch_hints& hints) override;
  bpntt::runtime::batch_result run_polymul(const std::vector<bpntt::core::polymul_pair>& pairs,
                                           const bpntt::runtime::dispatch_hints& hints) override;
  bpntt::runtime::batch_result run_rescale(const std::vector<bpntt::runtime::rns_rescale_job>& jobs,
                                           const bpntt::runtime::dispatch_hints& hints) override;
  bpntt::runtime::batch_result run_base_extend(
      const std::vector<bpntt::runtime::rns_base_extend_job>& jobs,
      const bpntt::runtime::dispatch_hints& hints) override;
  [[nodiscard]] std::size_t retarget_cache_size() const override {
    return inner_->retarget_cache_size();
  }

  // Array statistics summed over every dispatch so far.
  [[nodiscard]] bpntt::sram::op_stats totals() const;

 private:
  // The owning context attaches its pool, residency manager and recorder
  // to this wrapper; hand them on to the real backend before its first
  // dispatch.
  void attach_inner();
  template <typename F>
  bpntt::runtime::batch_result timed(std::size_t jobs, F&& call);

  std::unique_ptr<bpntt::runtime::backend> inner_;
  span_log* log_;
  std::once_flag attached_;
  mutable std::mutex mu_;
  bpntt::sram::op_stats totals_;
};

// Host time of the layers under the sram backend, called directly on one
// batch of polynomials.  The probe owns an engine configured like one of
// the runtime's compute subarrays.  Construction compiles the forward
// program through the microcode compiler (bpntt.compile) and warms the
// engine's own program cache.  run() loads the batch and transforms it
// through the engine (bpntt.run_forward: load + run_forward + read-back),
// then loads it again and runs the compiled program straight through
// isa::executor::run (isa).  Both outputs are checked against `golden`.
struct sram_probe_result {
  double engine_us = 0.0;
  double isa_us = 0.0;
  u64 isa_ops = 0;  // array ops the executor run issued
  bool outputs_ok = true;
};

class sram_probe {
 public:
  sram_probe(const bpntt::runtime::runtime_options& opts, u64 q);

  [[nodiscard]] double compile_us() const noexcept { return compile_us_; }
  sram_probe_result run(const std::vector<std::vector<u64>>& polys,
                        const std::vector<std::vector<u64>>& golden, span_log* log, u64 op,
                        u64 parent);

 private:
  bpntt::core::bp_ntt_engine engine_;
  bpntt::isa::program forward_;
  double compile_us_ = 0.0;
  std::vector<std::vector<u64>> batch_out_;
};

// Makespan of the dispatch spans ("ph":"X") in an exported Chrome trace,
// and the summed extent of those that start in [from_cycles, to_cycles).
struct trace_extent {
  u64 makespan = 0;
  u64 span_cycles = 0;
  bool read_ok = false;
};
[[nodiscard]] trace_extent scan_chrome_trace(const std::string& path, u64 from_cycles,
                                             u64 to_cycles);

}  // namespace perfbench
