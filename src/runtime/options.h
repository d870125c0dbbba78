// One knob surface for the whole runtime: backend choice plus every engine,
// bank and microcode option, collapsed into a single builder with a
// validate() that fails fast with a precise message.
//
//   auto opts = runtime_options()
//                   .with_ring(256, 7681, 14)
//                   .with_backend(backend_kind::sram)
//                   .with_topology(2, 2, 4);   // channels, banks/channel, subarrays
//   context ctx(opts);
//
// with_banks(n) remains the one-channel shorthand the earlier API exposed.
#pragma once

#include "bpntt/bank.h"

namespace bpntt::crypto {
struct param_set;
struct rns_param_set;
}  // namespace bpntt::crypto

namespace bpntt::runtime {

using u64 = core::u64;

enum class backend_kind {
  sram,       // cycle-level in-SRAM model (bp_ntt_bank / bp_ntt_engine)
  cpu,        // measured software baseline (Montgomery fast_ntt)
  reference,  // golden transform, used for cross-checking
};

[[nodiscard]] const char* to_string(backend_kind k) noexcept;

// Ordering policy of the scheduler's ready queue — which dispatch group a
// contended bank goes to next:
//   priority  — priority descending, flush order breaking ties (the
//               original policy; deadlines are accounting only).
//   edf       — earliest deadline first on the absolute virtual-timeline
//               deadline (the stream's flush frontier + deadline_cycles).
//               deadline_cycles == 0 means "no deadline" and sorts after
//               every finite deadline; equal deadlines fall back to
//               priority descending, then flush order.
// Both policies compose with aging (runtime_options::aging_limit): a group
// passed over `aging_limit` scheduling rounds is promoted ahead of every
// non-aged group (aged groups order among themselves in flush order), so a
// starved low-priority / late-deadline tenant eventually dispatches.
enum class schedule_policy { priority, edf };

[[nodiscard]] const char* to_string(schedule_policy p) noexcept;

// Chip-shaped view of the sram backend's compute resources (Fig. 4):
// channels -> banks -> subarrays.  Channels are the placement domains the
// scheduler prefers when spreading independent streams; banks are the unit
// of concurrent execution; subarrays (one repurposed as CTRL/CMD per bank)
// set a bank's SIMD width.  The cpu/reference backends ignore it.
struct device_topology {
  unsigned channels = 1;
  unsigned banks_per_channel = 1;
  unsigned subarrays = 4;  // per bank, including the CTRL/CMD subarray

  [[nodiscard]] unsigned total_banks() const noexcept { return channels * banks_per_channel; }
  // Bank ids of one channel: [first, first + banks_per_channel).
  [[nodiscard]] unsigned first_bank(unsigned channel) const noexcept {
    return channel * banks_per_channel;
  }

  void validate() const;
};

struct runtime_options {
  backend_kind backend = backend_kind::sram;
  core::ntt_params params;

  // sram backend: the chip topology and the subarray geometry itself.
  device_topology topo;
  core::engine_config array;

  // cpu backend: constants that convert measured wall time into the cycle /
  // energy accounting the unified job_result reports.
  double cpu_freq_ghz = 3.0;
  double cpu_power_w = 15.0;

  // Executor pool size for async flush and batch-internal fan-out (bank
  // slices, cpu job chunks).  0 derives a size from the host's hardware
  // concurrency; 1 gives a single worker (serial dispatch, still async
  // with respect to the submitting thread).
  unsigned threads = 0;

  // Bound (in moduli) on each backend's lazy per-modulus retarget cache —
  // the ring-overridden dispatch state (sram: retargeted bank arrays, cpu:
  // Montgomery fast paths, reference: golden tables).  Least-recently-
  // dispatched moduli are evicted and rebuilt on next use; must be >= 1.
  unsigned retarget_cache_limit = 16;

  // Compat shim over the on-array residency budget: the historical "cache
  // capacity in entries" knob, now translated into a per-subarray row
  // budget at context construction (entries x ring order n rows, spread
  // over the device's data subarrays — see context::finish_construction).
  // 0 disables residency entirely.  Prefer with_residency_rows() for new
  // code: it states the budget in the device's own currency.
  unsigned operand_cache_entries = 64;

  // Direct residency budget: reservable rows per data subarray for
  // device-resident operands.  0 = derive from operand_cache_entries (the
  // compat path); nonzero overrides the shim.  An operand occupies n rows,
  // so a subarray holds floor(rows / n) resident operands.
  unsigned residency_rows = 0;

  // Ready-queue ordering under bank contention (see schedule_policy).
  schedule_policy sched = schedule_policy::priority;

  // Starvation bound: a ready group passed over this many scheduling
  // rounds is promoted ahead of all non-aged groups.  0 disables aging
  // (byte-identical to the pre-aging scheduler).
  unsigned aging_limit = 0;

  // Cross-stream batching: when the scheduler picks a runnable group it
  // absorbs merge-compatible ready groups (same ring modulus, streams that
  // did not opt out, disjoint-or-shareable banks) into
  // one dispatch, distributing results back per stream.  Outputs are
  // bit-identical either way; off by default so dispatch counts and
  // ordering match the pre-batching scheduler exactly.
  bool merge_streams = false;

  // Virtual-timeline tracing (src/telemetry/): per-dispatch spans on the
  // scheduler's bank frontiers, scheduler lifecycle events, cache hit/miss
  // marks — exportable as Chrome trace-event JSON via
  // context::export_trace().  Off by default: a context without tracing
  // allocates no recorder and records nothing (every instrumentation site
  // is one null-pointer test).
  bool tracing = false;
  // Events retained per recording thread when tracing is on (rounded up to
  // a power of two; a full ring drops its oldest event and counts it).
  unsigned trace_capacity = 1u << 16;

  runtime_options& with_backend(backend_kind k) {
    backend = k;
    return *this;
  }
  runtime_options& with_params(const core::ntt_params& p) {
    params = p;
    return *this;
  }
  runtime_options& with_ring(u64 n, u64 q, unsigned k, bool incomplete = false) {
    params.n = n;
    params.q = q;
    params.k = k;
    params.incomplete = incomplete;
    return *this;
  }
  // Full chip shape: channels x banks_per_channel banks of `subarrays`
  // subarrays each.
  runtime_options& with_topology(unsigned channels, unsigned banks_per_channel,
                                 unsigned subarrays) {
    topo.channels = channels;
    topo.banks_per_channel = banks_per_channel;
    topo.subarrays = subarrays;
    return *this;
  }
  // One-channel shorthand: n independent banks on a single channel.
  runtime_options& with_banks(unsigned b) {
    topo.channels = 1;
    topo.banks_per_channel = b;
    return *this;
  }
  runtime_options& with_subarrays(unsigned s) {
    topo.subarrays = s;
    return *this;
  }
  runtime_options& with_array(unsigned data_rows, unsigned cols) {
    array.data_rows = data_rows;
    array.cols = cols;
    return *this;
  }
  runtime_options& with_tech(const sram::tech_params& t) {
    array.tech = t;
    return *this;
  }
  runtime_options& with_microcode(const core::compile_options& m) {
    array.microcode = m;
    return *this;
  }
  runtime_options& with_cpu_model(double freq_ghz, double power_w) {
    cpu_freq_ghz = freq_ghz;
    cpu_power_w = power_w;
    return *this;
  }
  runtime_options& with_threads(unsigned t) {
    threads = t;
    return *this;
  }
  runtime_options& with_retarget_cache(unsigned moduli) {
    retarget_cache_limit = moduli;
    return *this;
  }
  // Compat shim (see operand_cache_entries); with_residency_rows() is the
  // native spelling of the same budget.
  runtime_options& with_operand_cache(unsigned entries) {
    operand_cache_entries = entries;
    return *this;
  }
  runtime_options& with_residency_rows(unsigned rows_per_subarray) {
    residency_rows = rows_per_subarray;
    return *this;
  }
  runtime_options& with_schedule(schedule_policy p, unsigned aging = 0) {
    sched = p;
    aging_limit = aging;
    return *this;
  }
  runtime_options& with_cross_stream_batching(bool on = true) {
    merge_streams = on;
    return *this;
  }
  runtime_options& with_tracing(unsigned capacity = 1u << 16) {
    tracing = true;
    trace_capacity = capacity;
    return *this;
  }

  // Ring selection from a named lattice parameter set: picks the minimal
  // tile width and falls back to the incomplete transform when the set has
  // no full negacyclic NTT (standardized Kyber).
  [[nodiscard]] static runtime_options for_param_set(const crypto::param_set& set);

  // Ring selection from a big-modulus (RNS) parameter set: the context
  // ring hosts the chain's first limb and the tile width fits the widest
  // limb, so every limb prime is admissible as a stream ring override.
  // The caller still picks the topology — one channel per limb is what
  // lets the limb dispatch groups overlap.
  [[nodiscard]] static runtime_options for_rns_param_set(const crypto::rns_param_set& set);

  // Shared bound check for the executor pool size — called by validate()
  // and by the context constructors before the pool member is built.
  static void validate_threads(unsigned threads);

  // The sram backend's per-bank configuration, derived.
  [[nodiscard]] core::bank_config bank() const {
    core::bank_config cfg;
    cfg.subarrays = topo.subarrays;
    cfg.array = array;
    return cfg;
  }

  void validate() const;
};

}  // namespace bpntt::runtime
