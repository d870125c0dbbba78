// bpntt::runtime::context — the library's public job-submission API.
//
//   runtime::context ctx(runtime_options()
//                            .with_ring(256, 7681, 14)
//                            .with_backend(backend_kind::sram)
//                            .with_topology(2, 2, 4)    // channels, banks/ch, subarrays
//                            .with_threads(4));
//   auto fast = ctx.stream({.priority = 10});           // independent in-order lanes
//   auto bulk = ctx.stream({.deadline_cycles = 50000});
//   auto a = fast.submit(runtime::ntt_job{.coeffs = p1});
//   auto b = bulk.submit(runtime::ntt_job{.coeffs = p2});
//   fast.flush();  bulk.flush();                        // overlapping dispatch groups
//   auto ra = ctx.wait(a);  auto rb = ctx.wait(b);      // per-job completion
//
// The legacy single-queue surface is a thin wrapper over the default stream
// (id 0): ctx.submit() enqueues there, ctx.flush() flushes every stream, so
// existing callers keep compiling and behave exactly as before.
//
// submit() validates against the backend's capabilities() descriptor and
// enqueues; nothing executes until a flush (or a wait).  The deferral is
// the batching opportunity: at flush time a stream's pending set is
// partitioned by job kind — forward transforms with forward transforms,
// ring products with ring products — and the partitions become one
// *dispatch group* carrying the stream's dispatch_hints (stream id,
// priority, deadline, bank subset, chunk budget).
//
// Scheduling is the scheduler module's job (src/runtime/scheduler.h):
// group ordering (priority / EDF + aging behind one comparator), bank
// claiming and placement, cross-stream merging of compatible groups, and
// the yield decision of chunked dispatch all live there.  The context is
// job bookkeeping and result distribution: it builds groups at flush,
// executes the backend dispatches the scheduler hands back, accounts them
// on the scheduler's virtual timeline, and routes per-job results —
// including each merged member's slice — to completion state.
//
// Accounting runs on a virtual timeline of per-bank frontiers: a batch on
// subset S starts at S's frontier and advances it by the batch's
// wall_cycles, so scheduler_stats::wall_cycles is the makespan — identical
// to the old back-to-back sum when nothing overlaps, strictly smaller when
// streams overlap.  A stream deadline is checked against completion minus
// the frontier at flush; misses mark job_result::deadline_missed and count
// into deadline_misses.
//
// Failure model: a backend exception fails exactly the jobs of the
// dispatch it occurred in (job_status::failed + the backend's message);
// sibling dispatches of the same group, and sibling streams' groups, still
// complete.  wait() throws job_failed_error for a failed job;
// try_wait()/wait_all() return the failed job_result instead.
//
// Cross-stream batching (runtime_options::merge_streams, default off):
// when the scheduler picks a runnable group it absorbs merge-compatible
// ready groups — same ring modulus, streams that did not opt out
// (stream_options::no_merge), banks disjoint-or-shareable — and the
// context runs one dispatch per job kind over every member's jobs,
// distributing each member's outputs back to its own stream with that
// member's deadline accounting.  Outputs are bit-identical to unmerged
// execution; only the makespan and the per-dispatch amortization change.
//
// Preemptive yielding (stream_options::chunk_budget, default unbounded):
// a group dispatches in chunks of at most chunk_budget jobs; between
// chunks the scheduler may order an arriving finite-deadline group ahead,
// in which case the running group releases its banks and re-enters the
// ready queue with its original flush position — budget-based preemption
// without killing in-flight work.
//
// Threading contract: one client thread submits/flushes/waits; the pool
// threads are internal.  A context is not a multi-producer queue — the
// multi-tenant front door over it is service::service (src/service/),
// whose single drainer thread is the one client of the context while any
// number of application threads submit through lock-free session handles.
// Exception: stats(), pending() and the cache/stream observability probes
// are safe to call from any thread (a stats or monitoring thread can watch
// a live context).
#pragma once

#include <condition_variable>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <variant>
#include <vector>

#include "runtime/backend.h"
#include "runtime/executor.h"
#include "runtime/job.h"
#include "runtime/options.h"
#include "runtime/residency_manager.h"
#include "runtime/scheduler.h"
#include "runtime/stream.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace bpntt::runtime {

// Every job kind the runtime executes — the one list the service layer
// carries through its submission ring as well.
using job = std::variant<ntt_job, polymul_job, rns_rescale_job, rns_base_extend_job>;

// Cumulative scheduling counters across the context's lifetime.  A plain
// value snapshot — the live instruments behind every field are registry
// entries (context::metrics()); stats() assembles this struct from them,
// so the snapshot and the registry can never disagree.
struct scheduler_stats {
  u64 jobs_submitted = 0;
  u64 jobs_completed = 0;  // finished ok
  u64 jobs_failed = 0;     // dispatch raised; per-job error recorded
  u64 jobs_in_flight = 0;  // snapshot: dispatched, not yet completed/failed
  u64 groups = 0;          // dispatch groups executed (one per stream flush)
  u64 batches = 0;         // backend dispatches
  u64 waves = 0;           // scheduling waves executed by the backend
  // Virtual-timeline makespan: equals the back-to-back sum of batch
  // wall-clocks when nothing overlaps, strictly smaller when streams do.
  u64 wall_cycles = 0;
  u64 deadline_misses = 0;  // jobs that completed past their stream's deadline
  double energy_nj = 0.0;
  // On-array residency counters (cumulative): transforms served resident
  // vs computed fresh on ring-overridden (RNS limb) dispatches.  All stay
  // 0 when residency is disabled (operand_cache_entries == 0 and
  // residency_rows == 0).
  u64 operand_cache_hits = 0;
  u64 operand_cache_misses = 0;
  // Residents dropped under capacity pressure (LRU within the unpinned
  // class, charged against the subarray row budget).
  u64 residency_evictions = 0;
  // Warm serves paid as on-chip cross-bank row moves (operand resident,
  // but not on a bank the dispatch held).
  u64 residency_moves = 0;
  // Scheduler claims that landed a group on a bank already holding its
  // limb operands.
  u64 residency_affinity_hits = 0;
  // Device rows currently reserved by residents / lifetime high-water mark.
  u64 resident_rows = 0;
  u64 resident_rows_peak = 0;
  // Cross-stream batching: ready groups absorbed into another group's
  // merged dispatch (0 unless runtime_options::merge_streams is on).
  u64 groups_merged = 0;
  // Chunked groups that yielded their banks to an earlier-ordered group
  // mid-plan (0 unless a stream sets a chunk_budget).
  u64 preemption_yields = 0;
};

class context {
 public:
  explicit context(runtime_options opts);
  // Injects a caller-provided backend (stub backends in tests, custom
  // models).  opts still selects ring parameters and pool size.
  context(runtime_options opts, std::unique_ptr<backend> custom_backend);
  ~context();

  context(const context&) = delete;
  context& operator=(const context&) = delete;

  [[nodiscard]] const runtime_options& options() const noexcept { return opts_; }
  [[nodiscard]] backend& active_backend() noexcept { return *backend_; }
  // The backend's execution envelope, captured at construction.
  [[nodiscard]] const backend_caps& capabilities() const noexcept { return caps_; }
  // Jobs one scheduling round absorbs at full utilisation (0 = unbounded).
  [[nodiscard]] unsigned wave_width() const noexcept { return caps_.wave_width; }
  [[nodiscard]] unsigned executor_threads() const noexcept { return pool_.thread_count(); }
  // Counter snapshot (jobs_in_flight is the instantaneous gauge).  Safe
  // from any thread.
  [[nodiscard]] scheduler_stats stats() const;

  // The unified metrics registry behind stats(): every runtime counter
  // ("runtime.jobs_submitted", "runtime.wall_cycles", ...), the operand
  // cache's ("cache.hits"/"cache.misses") and the scheduler's
  // ("sched.groups_merged"/"sched.preemption_yields") live here, and the
  // service layer registers its instruments into the same registry.
  // metrics().to_json() is the one serialization bench artifacts embed.
  // Instrument updates and value reads are safe from any thread.
  [[nodiscard]] telemetry::metrics_registry& metrics() noexcept { return registry_; }
  [[nodiscard]] const telemetry::metrics_registry& metrics() const noexcept {
    return registry_;
  }

  // Tracing probes (safe from any thread).  enabled mirrors
  // runtime_options::tracing; the counters are cumulative across the
  // context's lifetime and stay 0 when tracing is off — the zero-overhead
  // guarantee a test can assert.
  struct trace_probe {
    bool enabled = false;
    u64 events_recorded = 0;
    u64 events_dropped = 0;
  };
  [[nodiscard]] trace_probe trace_stats() const noexcept {
    if (!recorder_) return {};
    return {true, recorder_->events_recorded(), recorder_->events_dropped()};
  }

  // Export the recorded virtual-timeline trace as Chrome trace-event JSON
  // (Perfetto / chrome://tracing open it directly).  Throws
  // std::logic_error when the context was built without with_tracing().
  // *Quiescent-only*: call after sync()/wait_all() — the recorder's rings
  // are drained without synchronization against in-flight dispatches (the
  // same contract as trace_recorder::snapshot_events()).
  void export_trace(const std::string& path) const;
  void export_trace(std::ostream& os) const;

  // The raw recorder (nullptr when tracing is off) — the low-level hook the
  // service layer uses to stamp ticket events onto the same timeline.
  [[nodiscard]] telemetry::trace_recorder* tracer() const noexcept { return recorder_.get(); }
  // Jobs enqueued on any stream and not yet handed to the scheduler.  Safe
  // from any thread.
  [[nodiscard]] std::size_t pending() const noexcept;
  // Streams currently open (the default stream included).  Safe from any
  // thread — the probe a stream pool sizes itself against.
  [[nodiscard]] std::size_t open_streams() const noexcept;

  // On-array residency surface.  Operands currently resident (0 when
  // residency is disabled).
  [[nodiscard]] std::size_t operand_cache_size() const noexcept;
  // Device rows currently reserved by resident operands, and the total row
  // budget (banks x data subarrays x rows per subarray).  Safe from any
  // thread.
  [[nodiscard]] u64 resident_rows() const noexcept;
  [[nodiscard]] u64 resident_row_capacity() const noexcept;
  // Drop the resident images of one operand (across every limb prime and
  // direction) — for callers that mutate or retire a polynomial the device
  // may hold (a rotated key, a freed ciphertext).  Pinned entries are
  // dropped too, and the operand's pin registration is forgotten: pinning
  // protects against *capacity eviction* only, explicit invalidation
  // always wins.  Returns the number of entries dropped.
  std::size_t invalidate_operand(const std::vector<u64>& coeffs) noexcept;
  // Drop every resident image, pinned included (counters are cumulative
  // and survive; pin registrations persist — the operands still exist).
  // Returns the number of entries dropped.
  std::size_t invalidate_operand_cache() noexcept;
  // Pin/unpin an operand's residency: pinned entries (current and future
  // inserts of the same coefficients) are exempt from capacity eviction —
  // for long-lived operands like evaluation keys that every multiply
  // touches.  No-ops when residency is disabled.
  void pin_operand(const std::vector<u64>& coeffs) noexcept;
  void unpin_operand(const std::vector<u64>& coeffs) noexcept;
  // The backend's lazy per-modulus retarget cache occupancy (LRU-bounded
  // by runtime_options::retarget_cache_limit).
  [[nodiscard]] std::size_t retarget_cache_size() const noexcept {
    return backend_->retarget_cache_size();
  }

  // Open an independent in-order submission lane.  Bank placement is
  // topology-aware unless sopts.bank_set pins it explicitly; the handle
  // stays valid for the context's lifetime.  A non-zero sopts.ring_q opens
  // a ring-overridden (RNS limb) stream; it is validated here: odd prime,
  // full negacyclic support at the configured n, inside the backend's
  // modulus envelope.
  [[nodiscard]] runtime::stream stream(stream_options sopts = {});

  // The context-owned limb stream dedicated to one RNS limb prime
  // (created with {.ring_q = prime} on first use, then reused — so every
  // product of a multi-limb workload lands its limb i on the same lane and
  // topology-aware placement spreads limbs across channels).  Same
  // validation as stream() with an explicit ring_q.
  [[nodiscard]] runtime::stream rns_stream(u64 prime);

  // A handle on the default stream (id 0), the lane the legacy submit()
  // surface enqueues on.  It owns every bank and cannot be closed.
  [[nodiscard]] runtime::stream default_stream() noexcept { return runtime::stream(this, 0); }

  // Fan one decomposed big-modulus ring product out as one polymul job per
  // limb, each on its limb's dedicated stream (rns_stream).  Validates the
  // chain (>= 1 distinct odd primes, per-limb residues canonical) and
  // returns the per-limb job ids in chain order.  Like submit(), nothing
  // executes until a flush; flushing the limb streams together is what
  // lets a multi-channel topology overlap the limb dispatch groups.
  rns_submission submit_rns(rns_polymul_job j);

  // Legacy single-queue surface: validate and enqueue on the default
  // stream; throws std::invalid_argument on jobs the configured ring or
  // backend capabilities cannot execute.
  job_id submit(ntt_job j);
  job_id submit(polymul_job j);

  // Flush every stream: each non-empty queue becomes one dispatch group
  // handed to the scheduler; returns without blocking.
  void flush();
  // flush() + block until nothing is in flight.  Unclaimed results stay
  // retrievable afterwards.
  void sync();

  // Blocking retrieval; flushes the owning stream first if the job is
  // still queued.  wait() consumes the result.  Throws
  // std::out_of_range("... unknown job id") for ids never returned by
  // submit, std::out_of_range("... already claimed") for results retrieved
  // before, and job_failed_error (with the backend's message) when the
  // job's dispatch failed.
  [[nodiscard]] job_result wait(job_id id);
  // Non-blocking probe: the result if the job has completed or failed
  // (consuming it — inspect job_result::status), std::nullopt while it is
  // queued or in flight.  Does not flush.  Throws like wait() for unknown
  // or already-claimed ids.
  [[nodiscard]] std::optional<job_result> try_wait(job_id id);
  // Flush, drain, and return all unclaimed results in submission order
  // (failed jobs included, carrying status/error).
  [[nodiscard]] std::vector<job_result> wait_all();

 private:
  friend class runtime::stream;

  // Per-stream client state: policy, placement, and the pre-flush FIFO.
  struct stream_state {
    stream_options sopts;
    std::vector<unsigned> resources;
    std::vector<std::pair<job_id, job>> queue;
  };

  // One member group's share of a dispatch (the host alone, or one member
  // of a merged group): the group (hints + ref_vtime for distribution) and
  // the ids of its jobs, whose outputs are contiguous in the dispatch.
  struct member_slice {
    const dispatch_group* g = nullptr;
    std::vector<job_id> ids;
  };

  void finish_construction();

  // Stream plumbing (called by the handle).
  job_id submit_ntt(unsigned sid, ntt_job j);
  job_id submit_polymul(unsigned sid, polymul_job j);
  job_id submit_rescale(unsigned sid, rns_rescale_job j);
  job_id submit_base_extend(unsigned sid, rns_base_extend_job j);
  void flush_stream(unsigned sid);
  void close_stream(unsigned sid);
  [[nodiscard]] std::size_t stream_pending(unsigned sid) const;
  [[nodiscard]] std::vector<unsigned> stream_bank_set(unsigned sid) const;
  [[nodiscard]] stream_state& state_of(unsigned sid);
  [[nodiscard]] const stream_state& state_of(unsigned sid) const;
  [[nodiscard]] std::vector<unsigned> auto_bank_set(unsigned sid) const;
  // Partition one stream's queue into a dispatch group (nullptr if empty).
  [[nodiscard]] std::shared_ptr<dispatch_group> build_group(unsigned sid);
  // Job bookkeeping around scheduler::enqueue: jobs become in-flight before
  // the group can run, the flush counts into stats_.groups.  Requires mu_.
  void admit_group_locked(std::shared_ptr<dispatch_group> g);
  // Pull every runnable group off the scheduler and hand it to the pool.
  // Requires mu_.
  void kick_locked();

  job_id enqueue(unsigned sid, job j);
  // The stream a still-queued job sits on, if any.
  [[nodiscard]] std::optional<unsigned> queued_on(job_id id) const noexcept;

  // Run one claimed group: for each job kind in turn, one dispatch over
  // the members' jobs (the host, then any absorbed groups).  A solo group
  // with a chunk_budget dispatches in chunks and may yield between them.
  void run_group(const std::shared_ptr<dispatch_group>& g);
  // One job kind of run_group.  `run` turns the taken jobs into a backend
  // dispatch.  Returns true when the group yielded (banks released,
  // remainder re-enqueued) — the caller must not release again.
  template <class Job, class Run>
  bool run_kind(const std::shared_ptr<dispatch_group>& g,
                const std::vector<dispatch_group*>& members, const dispatch_hints& hints,
                kind_batch<Job> flush_plan::*kind, telemetry::trace_op op, Run&& run);

  // Advance the group's bank frontiers by one batch (scheduler::account)
  // and fold the batch into the cumulative counters; returns the batch's
  // completion time on the virtual timeline.  When tracing, stamps one
  // `op` span per claimed bank over exactly [end - wall, end) — the trace's
  // reconstructed makespan (max span end) equals stats().wall_cycles by
  // construction.  Requires mu_.
  u64 account_locked(const dispatch_group& g, const batch_result& r, telemetry::trace_op op,
                     std::size_t jobs);
  // Account one dispatch once on the host's claimed banks, then route each
  // member's slice of the outputs with that member's deadline accounting.
  void distribute(const dispatch_group& host, const std::vector<member_slice>& slices,
                  std::size_t total_jobs, batch_result&& r, telemetry::trace_op op);
  void fail_group(const dispatch_group& g, const std::vector<job_id>& ids,
                  const std::string& what);

  runtime_options opts_;
  std::unique_ptr<backend> backend_;
  backend_caps caps_;
  // The on-array residency manager backends consult on ring-overridden
  // dispatches; null when disabled (operand_cache_entries == 0 and
  // residency_rows == 0).  Built after caps_ — its bank/channel/subarray
  // shape comes from the backend's capabilities.
  std::unique_ptr<residency_manager> resman_;
  // Client-thread state: per-stream queues and the id counters.  Only the
  // client thread mutates streams_ (always under smu_); smu_ exists so a
  // non-client observer (stats thread) reading pending()/open_streams()
  // sees a consistent map.  Never held while acquiring mu_.
  mutable std::mutex smu_;
  std::map<unsigned, stream_state> streams_;
  // Dedicated RNS limb streams, keyed by limb prime (lazily created).
  std::map<u64, unsigned> rns_streams_;
  unsigned next_stream_id_ = 1;
  job_id next_id_ = 1;
  // The unified instrument store (and the recorder when tracing is on).
  // Every cumulative counter the old scheduler_stats member mirrored now
  // lives in the registry; m_ caches the instrument pointers the hot paths
  // bump (registered once in finish_construction, stable for the
  // registry's lifetime).
  telemetry::metrics_registry registry_;
  std::unique_ptr<telemetry::trace_recorder> recorder_;
  struct metric_refs {
    telemetry::counter* jobs_submitted = nullptr;
    telemetry::counter* jobs_completed = nullptr;
    telemetry::counter* jobs_failed = nullptr;
    telemetry::counter* groups = nullptr;
    telemetry::counter* batches = nullptr;
    telemetry::counter* waves = nullptr;
    telemetry::gauge* wall_cycles = nullptr;  // makespan high-water mark
    telemetry::counter* deadline_misses = nullptr;
    telemetry::real_accum* energy_nj = nullptr;
    telemetry::counter* cache_hits = nullptr;    // shared with the residency
    telemetry::counter* cache_misses = nullptr;  //   manager (attach_metrics)
    telemetry::counter* residency_evictions = nullptr;
    telemetry::counter* residency_moves = nullptr;
    telemetry::gauge* resident_rows = nullptr;
    telemetry::gauge* resident_rows_peak = nullptr;
    telemetry::counter* groups_merged = nullptr;      // shared with the scheduler
    telemetry::counter* preemption_yields = nullptr;  //   (attach_metrics)
    telemetry::counter* residency_affinity_hits = nullptr;
  };
  metric_refs m_;
  // Shared state, guarded by mu_: completion map, in-flight set, and the
  // scheduler module (ready groups, bank claims, bank frontiers).
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<job_id, job_result> done_;
  std::set<job_id> in_flight_;
  // The extracted scheduling engine (src/runtime/scheduler.h); constructed
  // once the backend's bank map is known.  Every access is under mu_.
  std::unique_ptr<scheduler> sched_;
  // Declared last: destroyed first, joining the workers (and finishing any
  // queued dispatch group) before the members those tasks reference go away.
  executor pool_;
};

}  // namespace bpntt::runtime
