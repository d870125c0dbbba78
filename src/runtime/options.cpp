#include "runtime/options.h"

#include <stdexcept>
#include <string>

#include "crypto/params.h"

namespace bpntt::runtime {

const char* to_string(backend_kind k) noexcept {
  switch (k) {
    case backend_kind::sram:
      return "sram";
    case backend_kind::cpu:
      return "cpu";
    case backend_kind::reference:
      return "reference";
  }
  return "?";
}

const char* to_string(schedule_policy p) noexcept {
  switch (p) {
    case schedule_policy::priority:
      return "priority";
    case schedule_policy::edf:
      return "edf";
  }
  return "?";
}

void device_topology::validate() const {
  if (channels < 1 || channels > 16) {
    throw std::invalid_argument("device_topology: channels must be in [1, 16]");
  }
  if (banks_per_channel < 1) {
    throw std::invalid_argument("device_topology: banks_per_channel must be >= 1");
  }
  if (total_banks() > 64) {
    throw std::invalid_argument("device_topology: channels * banks_per_channel must be <= 64");
  }
}

runtime_options runtime_options::for_param_set(const crypto::param_set& set) {
  runtime_options opts;
  opts.params.n = set.n;
  opts.params.q = set.q;
  opts.params.k = std::max(set.min_tile_bits, crypto::required_tile_bits(set.q));
  opts.params.negacyclic = set.negacyclic;
  opts.params.incomplete = set.negacyclic && !set.supports_full_ntt();
  return opts;
}

runtime_options runtime_options::for_rns_param_set(const crypto::rns_param_set& set) {
  if (set.primes.empty()) {
    throw std::invalid_argument("runtime_options: rns_param_set carries no limb primes");
  }
  runtime_options opts;
  opts.params.n = set.n;
  opts.params.q = set.primes.front();
  opts.params.k = set.min_tile_bits;
  opts.params.negacyclic = true;
  opts.params.incomplete = false;
  return opts;
}

void runtime_options::validate_threads(unsigned threads) {
  if (threads > 256) {
    throw std::invalid_argument("runtime_options: threads must be in [0, 256] (0 = auto)");
  }
}

void runtime_options::validate() const {
  params.validate();
  if (params.synthetic()) {
    throw std::invalid_argument(
        "runtime_options: synthetic params (q == 0) have no job semantics; use the perf_model "
        "sweeps for performance-only runs");
  }
  validate_threads(threads);
  if (retarget_cache_limit < 1) {
    throw std::invalid_argument(
        "runtime_options: retarget_cache_limit must be >= 1 — a zero-capacity cache would "
        "rebuild the per-modulus retarget state on every ring-overridden dispatch");
  }
  if (tracing && trace_capacity == 0) {
    throw std::invalid_argument(
        "runtime_options: trace_capacity must be >= 1 when tracing is enabled — a "
        "zero-capacity recorder would drop every event it accepts");
  }
  // The cpu model constants feed cycle/energy accounting; a non-positive
  // value would silently produce nonsense (infinite cycles, negative
  // energy), so they are rejected for every backend, not just cpu.
  if (cpu_freq_ghz <= 0.0) {
    throw std::invalid_argument("runtime_options: cpu_freq_ghz must be > 0 (got " +
                                std::to_string(cpu_freq_ghz) + ")");
  }
  if (cpu_power_w <= 0.0) {
    throw std::invalid_argument("runtime_options: cpu_power_w must be > 0 (got " +
                                std::to_string(cpu_power_w) + ")");
  }
  switch (backend) {
    case backend_kind::sram:
      topo.validate();
      bank().validate();
      if (params.n > array.data_rows) {
        throw std::invalid_argument(
            "runtime_options: polynomial order n = " + std::to_string(params.n) +
            " exceeds the subarray's " + std::to_string(array.data_rows) + " data rows");
      }
      break;
    case backend_kind::cpu:
    case backend_kind::reference:
      break;
  }
}

}  // namespace bpntt::runtime
