// bpntt::service — the multi-tenant front door over the runtime.
//
//   service::service svc(runtime::runtime_options()
//                            .with_ring(256, 7681, 14)
//                            .with_topology(4, 1, 4)
//                            .with_schedule(runtime::schedule_policy::edf,
//                                           /*aging_limit=*/8));
//   auto fast = svc.open_session({.priority = 10, .deadline_cycles = 50'000});
//   auto bulk = svc.open_session({.max_queued = 128});
//   // ...any number of application threads, concurrently:
//   auto t = fast.submit(runtime::ntt_job{.coeffs = p});  // lock-free admission
//   auto r = t.get();                                     // blocks for the result
//
// A runtime::context is a single-client API: one thread submits, flushes
// and waits.  The service wraps one context and makes it a service: any
// number of client threads submit typed jobs through session handles; a
// bounded lock-free MPSC ring (mpsc_queue.h) carries the submissions to
// one dedicated *drainer* thread, which is the context's single client —
// it maps sessions onto pooled context streams, batches each session's
// jobs into dispatch groups, flushes, harvests completions and fulfills
// tickets.  Client threads never touch the context's scheduler lock.
//
// Sessions are tenants: each carries a priority, an optional deadline
// budget (per dispatch group, on the virtual timeline), an optional RNS
// limb ring override, and admission caps.  Admission control is enforced
// at submit(): a session past its queued or in-flight cap — or a full
// submission ring, or a closed session/service — rejects with a typed
// admission_error instead of queueing unboundedly.  Rejection is the
// backpressure signal; nothing blocks.
//
// Ready-queue ordering among contending tenants is the wrapped context's
// schedule_policy: priority (default) or EDF with priority aging — pass
// the policy in the runtime_options.  Completion latency (submit() to
// harvest, wall clock) lands in fixed-bucket histograms (histogram.h),
// per session and service-wide; stats() is safe from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/context.h"
#include "service/mpsc_queue.h"
#include "telemetry/histogram.h"
#include "telemetry/metrics.h"

namespace bpntt::service {

using runtime::u64;
// The latency histogram lives in telemetry/ (shared with the metrics
// registry); the service layer keeps its historical unqualified spelling.
using latency_histogram = telemetry::latency_histogram;

class service;

// Why an admission was refused.  queue_full is global backpressure (the
// MPSC ring is at capacity); session_backlog and session_in_flight are the
// per-tenant caps; closed covers submitting on a closed session or a
// stopping service.
enum class admission_reason { queue_full, session_backlog, session_in_flight, closed };

[[nodiscard]] const char* to_string(admission_reason r) noexcept;

class admission_error : public std::runtime_error {
 public:
  admission_error(admission_reason r, const std::string& what)
      : std::runtime_error("service: " + what), reason_(r) {}
  [[nodiscard]] admission_reason reason() const noexcept { return reason_; }

 private:
  admission_reason reason_;
};

// Per-tenant policy, fixed at open_session().
struct session_options {
  // Scheduling policy of the tenant's stream (see stream_options).
  int priority = 0;
  // Completion budget per dispatch group on the virtual timeline; 0 =
  // none.  Under schedule_policy::edf this is also the ordering key.
  u64 deadline_cycles = 0;
  // Non-zero: an RNS limb tenant — every job runs at this ring modulus
  // (validated when the drainer opens the tenant's stream).
  u64 ring_q = 0;
  // Opt this tenant out of cross-stream batching (see
  // stream_options::no_merge): its dispatch groups never share a backend
  // dispatch with another tenant's.  Irrelevant unless the wrapped context
  // was built with runtime_options::merge_streams.
  bool no_merge = false;
  // Preemptive-yield budget (see stream_options::chunk_budget): this
  // tenant's groups dispatch at most this many jobs per chunk and offer
  // their banks to earlier-ordered tenants between chunks.  0 = unbounded.
  u64 chunk_budget = 0;
  // Admission caps: jobs admitted but not yet dispatched to the backend
  // (backlog), and dispatched but not completed (in flight).  Submissions
  // past either cap reject with admission_error.  Both must be >= 1.
  std::size_t max_queued = 256;
  std::size_t max_in_flight = 256;
};

struct service_options {
  // Slots in the lock-free submission ring (rounded up to a power of two).
  // A full ring rejects with admission_reason::queue_full.
  std::size_t queue_capacity = 1024;
  // Parked-stream cap of the stream pool: streams released by closed
  // sessions are kept for reuse by policy-compatible future sessions;
  // parked streams beyond this limit are closed instead.
  std::size_t stream_pool_limit = 8;
};

// Counter snapshot of one tenant (or, for service::stats(), the whole
// service).  Latency quantiles are bucket upper bounds of the fixed-bucket
// histogram — "p99 <= p99_ns" at ~25% bucket resolution; miss rate is
// deadline misses over completions.
struct service_stats {
  u64 submitted = 0;  // admission attempts
  u64 admitted = 0;   // accepted into the ring
  u64 rejected = 0;   // sum of the reject reasons below
  u64 rejected_queue_full = 0;
  u64 rejected_backlog = 0;
  u64 rejected_in_flight = 0;
  u64 rejected_closed = 0;
  u64 completed = 0;  // results delivered ok
  u64 failed = 0;     // results delivered with job_status::failed
  u64 deadline_misses = 0;
  // Point-in-time gauges (admitted-not-dispatched / dispatched-incomplete).
  u64 queued = 0;
  u64 in_flight = 0;
  u64 latency_samples = 0;
  u64 p50_ns = 0;
  u64 p95_ns = 0;
  u64 p99_ns = 0;
  u64 max_ns = 0;
  // Scheduler probes of the wrapped context (service-wide only — the
  // scheduler does not attribute merges or yields to tenants): dispatch
  // groups absorbed into another group's merged dispatch, and chunked
  // groups that yielded their banks mid-plan.  Both stay 0 per session.
  u64 groups_merged = 0;
  u64 preemption_yields = 0;

  [[nodiscard]] double deadline_miss_rate() const noexcept {
    const u64 done = completed + failed;
    return done == 0 ? 0.0 : static_cast<double>(deadline_misses) / static_cast<double>(done);
  }
};

// One job's completion handle.  get() blocks until the drainer delivers
// the result (inspect job_result::status — a backend failure is a result,
// not an exception) and consumes it; a second get() throws
// std::logic_error, as does get() on a default-constructed ticket.
class ticket {
 public:
  ticket() = default;

  [[nodiscard]] runtime::job_result get();
  // True once the result is delivered (get() will not block).
  [[nodiscard]] bool ready() const noexcept;
  [[nodiscard]] bool valid() const noexcept { return st_ != nullptr; }

 private:
  friend class service;
  struct state {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool claimed = false;
    runtime::job_result res;
  };
  explicit ticket(std::shared_ptr<state> st) noexcept : st_(std::move(st)) {}
  std::shared_ptr<state> st_;
};

// A tenant handle.  Lightweight view (copying shares the tenant), safe to
// use from any thread — submit() is the lock-free front door.
class session {
 public:
  session() = default;

  // Validate-light admission: enforce the caps, stamp the submission time,
  // push into the ring.  Throws admission_error on rejection; deep job
  // validation happens on the drainer (an invalid job comes back as a
  // failed result carrying the runtime's message).
  ticket submit(runtime::ntt_job j);
  ticket submit(runtime::polymul_job j);
  // The RNS limb-tenant jobs (ring_q sessions): a modulus-switch
  // correction and a base-extension lift on the tenant's limb stream —
  // what a leveled RNS-RLWE client's relinearization traffic looks like.
  ticket submit(runtime::rns_rescale_job j);
  ticket submit(runtime::rns_base_extend_job j);

  // Stop admitting (idempotent).  Outstanding jobs still complete and
  // their tickets stay valid; the tenant's stream returns to the pool once
  // it drains.
  void close();

  [[nodiscard]] unsigned id() const noexcept { return id_; }
  [[nodiscard]] service_stats stats() const;

 private:
  friend class service;
  session(service* svc, unsigned id) noexcept : svc_(svc), id_(id) {}
  service* svc_ = nullptr;
  unsigned id_ = 0;
};

class service {
 public:
  explicit service(runtime::runtime_options ropts, service_options sopts = {});
  // Custom-backend constructor (stub backends in tests).
  service(runtime::runtime_options ropts, std::unique_ptr<runtime::backend> custom_backend,
          service_options sopts = {});
  // Closes the front door, drains everything admitted, joins the drainer.
  ~service();

  service(const service&) = delete;
  service& operator=(const service&) = delete;

  // Open a tenant.  Safe from any thread.
  [[nodiscard]] session open_session(session_options o = {});

  // Service-wide counters + latency histogram snapshot.  Safe from any
  // thread (the monitoring-thread surface, along with runtime_stats()).
  [[nodiscard]] service_stats stats() const;
  // The wrapped context's scheduler counters (thread-safe by contract).
  [[nodiscard]] runtime::scheduler_stats runtime_stats() const { return ctx_.stats(); }
  // The unified metrics registry of the wrapped context: the runtime's
  // "runtime."/"cache."/"sched." instruments plus this service's
  // "service." counters and latency/queue-wait/exec histograms.  Value
  // reads and to_json() are safe from any thread.
  [[nodiscard]] telemetry::metrics_registry& metrics() noexcept { return ctx_.metrics(); }
  [[nodiscard]] const telemetry::metrics_registry& metrics() const noexcept {
    return ctx_.metrics();
  }
  // Chrome-trace export of the wrapped context's recorder; throws
  // std::logic_error unless the runtime_options carried with_tracing().
  // Quiescent-only: call after drain().
  void export_trace(const std::string& path) const { ctx_.export_trace(path); }
  [[nodiscard]] runtime::context::trace_probe trace_stats() const noexcept {
    return ctx_.trace_stats();
  }
  // Open context streams (default stream + live tenants + parked pool).
  [[nodiscard]] std::size_t open_streams() const noexcept { return ctx_.open_streams(); }
  // Streams currently parked in the reuse pool.
  [[nodiscard]] std::size_t pooled_streams() const noexcept {
    return pooled_.load(std::memory_order_acquire);
  }

  // Block until every job admitted so far has completed.
  void drain();

 private:
  friend class session;

  struct session_state;

  struct submission {
    std::shared_ptr<session_state> sess;
    std::shared_ptr<ticket::state> st;
    runtime::job job;
    std::chrono::steady_clock::time_point t_submit;
  };

  // Shared tenant state.  Client threads touch the atomics and counters;
  // the drainer owns the stream fields.
  struct session_state {
    session_options opts;
    std::atomic<bool> closed{false};
    std::atomic<std::size_t> queued{0};     // admitted, not yet dispatched
    std::atomic<std::size_t> in_flight{0};  // dispatched, not completed
    // Submit-side counters (atomic: any client thread).
    std::atomic<u64> submitted{0}, admitted{0};
    std::atomic<u64> rej_queue_full{0}, rej_backlog{0}, rej_in_flight{0}, rej_closed{0};
    // Completion-side state, guarded by the service's stats_mu_.
    u64 completed = 0, failed = 0, deadline_misses = 0;
    latency_histogram latency;
    // Drainer-only: the tenant's context stream, opened on first dispatch.
    runtime::stream stream;
    bool has_stream = false;
  };

  struct inflight_rec {
    std::shared_ptr<session_state> sess;
    std::shared_ptr<ticket::state> st;
    std::chrono::steady_clock::time_point t_submit;
  };

  // A parked stream a future policy-compatible session can reuse.  The
  // compatibility key is every option that shapes the stream's scheduling
  // behaviour — a stream opened for a no-merge or chunk-budgeted tenant
  // must not leak those semantics to a tenant that did not ask for them.
  struct pooled_stream {
    int priority;
    u64 deadline_cycles;
    u64 ring_q;
    bool no_merge;
    u64 chunk_budget;
    runtime::stream stream;
  };

  ticket admit(unsigned sid, runtime::job j);
  void register_metrics();
  [[nodiscard]] std::shared_ptr<session_state> session_of(unsigned sid) const;
  void close_session(unsigned sid);
  [[nodiscard]] service_stats session_stats(unsigned sid) const;

  void drain_loop();
  // Dispatch one popped submission onto its tenant's stream (drainer).
  // Returns true if a job reached a stream (a flush is owed).
  bool dispatch(submission&& s, std::map<runtime::job_id, inflight_rec>& inflight);
  // Deliver one result: record stats and latency, fulfill the ticket.
  void deliver(session_state& ss, const std::shared_ptr<ticket::state>& st,
               std::chrono::steady_clock::time_point t_submit, runtime::job_result&& r);
  void ensure_stream(const std::shared_ptr<session_state>& sess);
  void retire_idle_streams();

  service_options sopts_;
  runtime::context ctx_;  // the drainer is this context's single client
  mpsc_queue<submission> queue_;

  // Tenant registry (any thread opens/looks up sessions).
  mutable std::mutex sessions_mu_;
  std::map<unsigned, std::shared_ptr<session_state>> sessions_;
  unsigned next_session_ = 1;

  // Service-wide instruments, registered under "service." in the wrapped
  // context's metrics registry (register_metrics(), called by both ctors
  // before the drainer starts).  Counter updates are lock-free from any
  // client thread; histogram records take the cell's own mutex.  The
  // registry owns the cells — these are stable references, so stats() and
  // metrics().to_json() read the very counters the hot path bumps.
  struct metric_refs {
    telemetry::counter* submitted = nullptr;
    telemetry::counter* admitted = nullptr;
    telemetry::counter* rej_queue_full = nullptr;
    telemetry::counter* rej_backlog = nullptr;
    telemetry::counter* rej_in_flight = nullptr;
    telemetry::counter* rej_closed = nullptr;
    telemetry::counter* completed = nullptr;
    telemetry::counter* failed = nullptr;
    telemetry::counter* deadline_misses = nullptr;
    telemetry::histogram_cell* latency_ns = nullptr;     // submit -> harvest, wall clock
    telemetry::histogram_cell* queue_wait_ns = nullptr;  // submit -> stream dispatch
    telemetry::histogram_cell* exec_cycles = nullptr;    // backend wall_cycles per job
  };
  metric_refs m_;

  // Per-session completion-side state (session_state histograms and
  // misses) stays under stats_mu_; the service-wide equivalents moved
  // into the registry above.
  mutable std::mutex stats_mu_;
  std::condition_variable drained_cv_;
  std::atomic<u64> outstanding_{0};  // admitted - delivered

  // Drainer wakeup: producers notify only when the drainer declared
  // itself idle, so the submit hot path stays lock-free.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> drainer_idle_{false};

  std::atomic<bool> closed_{false};    // front door
  std::atomic<bool> stopping_{false};  // drainer exit once drained
  // Drainer-only: sessions currently holding a stream, and the parked pool.
  std::vector<std::shared_ptr<session_state>> streamed_sessions_;
  std::vector<pooled_stream> stream_pool_;
  std::atomic<std::size_t> pooled_{0};  // stream_pool_.size() gauge for observers
  std::thread drainer_;  // last member: joined by ~service before ctx_ dies
};

}  // namespace bpntt::service
