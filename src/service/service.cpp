#include "service/service.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "telemetry/trace.h"

namespace bpntt::service {

using std::chrono::steady_clock;

const char* to_string(admission_reason r) noexcept {
  switch (r) {
    case admission_reason::queue_full:
      return "queue_full";
    case admission_reason::session_backlog:
      return "session_backlog";
    case admission_reason::session_in_flight:
      return "session_in_flight";
    case admission_reason::closed:
      return "closed";
  }
  return "?";
}

// ---- ticket ----------------------------------------------------------------

runtime::job_result ticket::get() {
  if (!st_) {
    throw std::logic_error("service: ticket is empty (default-constructed)");
  }
  std::unique_lock<std::mutex> lk(st_->mu);
  st_->cv.wait(lk, [&] { return st_->done; });
  if (st_->claimed) {
    throw std::logic_error("service: ticket result already claimed");
  }
  st_->claimed = true;
  return std::move(st_->res);
}

bool ticket::ready() const noexcept {
  if (!st_) return false;
  std::lock_guard<std::mutex> lk(st_->mu);
  return st_->done;
}

// ---- session handle --------------------------------------------------------

ticket session::submit(runtime::ntt_job j) {
  if (svc_ == nullptr) throw std::logic_error("service: session handle is not bound");
  return svc_->admit(id_, runtime::job(std::move(j)));
}
ticket session::submit(runtime::polymul_job j) {
  if (svc_ == nullptr) throw std::logic_error("service: session handle is not bound");
  return svc_->admit(id_, runtime::job(std::move(j)));
}
ticket session::submit(runtime::rns_rescale_job j) {
  if (svc_ == nullptr) throw std::logic_error("service: session handle is not bound");
  return svc_->admit(id_, runtime::job(std::move(j)));
}
ticket session::submit(runtime::rns_base_extend_job j) {
  if (svc_ == nullptr) throw std::logic_error("service: session handle is not bound");
  return svc_->admit(id_, runtime::job(std::move(j)));
}
void session::close() {
  if (svc_ == nullptr) throw std::logic_error("service: session handle is not bound");
  svc_->close_session(id_);
}
service_stats session::stats() const {
  if (svc_ == nullptr) throw std::logic_error("service: session handle is not bound");
  return svc_->session_stats(id_);
}

// ---- service lifecycle -----------------------------------------------------

namespace {

std::size_t checked_queue_capacity(const service_options& sopts) {
  if (sopts.queue_capacity == 0) {
    throw std::invalid_argument("service: queue_capacity must be >= 1");
  }
  return sopts.queue_capacity;
}

}  // namespace

service::service(runtime::runtime_options ropts, service_options sopts)
    : sopts_(sopts), ctx_(std::move(ropts)), queue_(checked_queue_capacity(sopts)) {
  register_metrics();
  drainer_ = std::thread([this] { drain_loop(); });
}

service::service(runtime::runtime_options ropts,
                 std::unique_ptr<runtime::backend> custom_backend, service_options sopts)
    : sopts_(sopts),
      ctx_(std::move(ropts), std::move(custom_backend)),
      queue_(checked_queue_capacity(sopts)) {
  register_metrics();
  drainer_ = std::thread([this] { drain_loop(); });
}

void service::register_metrics() {
  auto& reg = ctx_.metrics();
  m_.submitted = &reg.make_counter("service.submitted");
  m_.admitted = &reg.make_counter("service.admitted");
  m_.rej_queue_full = &reg.make_counter("service.rejected_queue_full");
  m_.rej_backlog = &reg.make_counter("service.rejected_backlog");
  m_.rej_in_flight = &reg.make_counter("service.rejected_in_flight");
  m_.rej_closed = &reg.make_counter("service.rejected_closed");
  m_.completed = &reg.make_counter("service.completed");
  m_.failed = &reg.make_counter("service.failed");
  m_.deadline_misses = &reg.make_counter("service.deadline_misses");
  m_.latency_ns = &reg.make_histogram("service.latency_ns");
  m_.queue_wait_ns = &reg.make_histogram("service.queue_wait_ns");
  m_.exec_cycles = &reg.make_histogram("service.exec_cycles");
}

service::~service() {
  closed_.store(true, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    wake_cv_.notify_all();
  }
  if (drainer_.joinable()) drainer_.join();
}

session service::open_session(session_options o) {
  if (o.max_queued == 0 || o.max_in_flight == 0) {
    throw std::invalid_argument(
        "service: session caps max_queued and max_in_flight must be >= 1");
  }
  if (closed_.load(std::memory_order_acquire)) {
    throw admission_error(admission_reason::closed, "service is shutting down");
  }
  auto ss = std::make_shared<session_state>();
  ss->opts = o;
  std::lock_guard<std::mutex> lk(sessions_mu_);
  const unsigned sid = next_session_++;
  sessions_.emplace(sid, std::move(ss));
  return session(this, sid);
}

std::shared_ptr<service::session_state> service::session_of(unsigned sid) const {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  const auto it = sessions_.find(sid);
  if (it == sessions_.end()) {
    throw std::logic_error("service: session handle is foreign to this service");
  }
  return it->second;
}

void service::close_session(unsigned sid) {
  session_of(sid)->closed.store(true, std::memory_order_release);
  // Nudge the drainer so the tenant's stream retires promptly even when
  // the service is otherwise idle.
  std::lock_guard<std::mutex> lk(wake_mu_);
  wake_cv_.notify_all();
}

// ---- admission (client threads, lock-free) ---------------------------------

ticket service::admit(unsigned sid, runtime::job j) {
  auto sess = session_of(sid);
  sess->submitted.fetch_add(1, std::memory_order_relaxed);
  m_.submitted->add();

  const auto reject = [&](admission_reason r, std::atomic<u64>& session_ctr,
                          telemetry::counter& global_ctr, const std::string& what) -> ticket {
    session_ctr.fetch_add(1, std::memory_order_relaxed);
    global_ctr.add();
    throw admission_error(r, what);
  };

  if (closed_.load(std::memory_order_acquire) || sess->closed.load(std::memory_order_acquire)) {
    return reject(admission_reason::closed, sess->rej_closed, *m_.rej_closed,
                  "session " + std::to_string(sid) + " is closed");
  }
  // In-flight cap: checked before claiming a backlog slot so a tenant
  // saturating the backend is pushed back immediately.  Both caps are
  // enforced with atomics — concurrent submitters may transiently observe
  // the cap a few entries late, never unboundedly.
  if (sess->in_flight.load(std::memory_order_acquire) >= sess->opts.max_in_flight) {
    return reject(admission_reason::session_in_flight, sess->rej_in_flight, *m_.rej_in_flight,
                  "session " + std::to_string(sid) + " is at its in-flight cap (" +
                      std::to_string(sess->opts.max_in_flight) + ")");
  }
  if (sess->queued.fetch_add(1, std::memory_order_acq_rel) + 1 > sess->opts.max_queued) {
    sess->queued.fetch_sub(1, std::memory_order_acq_rel);
    return reject(admission_reason::session_backlog, sess->rej_backlog, *m_.rej_backlog,
                  "session " + std::to_string(sid) + " is at its backlog cap (" +
                      std::to_string(sess->opts.max_queued) + ")");
  }

  auto st = std::make_shared<ticket::state>();
  submission sub;
  sub.sess = sess;
  sub.st = st;
  sub.job = std::move(j);
  sub.t_submit = steady_clock::now();

  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  if (!queue_.try_push(std::move(sub))) {
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    sess->queued.fetch_sub(1, std::memory_order_acq_rel);
    return reject(admission_reason::queue_full, sess->rej_queue_full, *m_.rej_queue_full,
                  "submission ring is full (" + std::to_string(queue_.capacity()) + " slots)");
  }
  sess->admitted.fetch_add(1, std::memory_order_relaxed);
  m_.admitted->add();

  // Wake the drainer only when it declared itself idle — the common-case
  // submit never touches a mutex.
  if (drainer_idle_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(wake_mu_);
    wake_cv_.notify_one();
  }
  return ticket(st);
}

// ---- drainer ---------------------------------------------------------------

void service::ensure_stream(const std::shared_ptr<session_state>& sess) {
  if (sess->has_stream) return;
  const auto& o = sess->opts;
  // Reuse a parked policy-compatible stream before opening a fresh one.
  const auto it = std::find_if(stream_pool_.begin(), stream_pool_.end(),
                               [&](const pooled_stream& p) {
                                 return p.priority == o.priority &&
                                        p.deadline_cycles == o.deadline_cycles &&
                                        p.ring_q == o.ring_q && p.no_merge == o.no_merge &&
                                        p.chunk_budget == o.chunk_budget;
                               });
  if (it != stream_pool_.end()) {
    sess->stream = it->stream;
    stream_pool_.erase(it);
    pooled_.store(stream_pool_.size(), std::memory_order_release);
  } else {
    runtime::stream_options so;
    so.priority = o.priority;
    so.deadline_cycles = o.deadline_cycles;
    so.ring_q = o.ring_q;
    so.no_merge = o.no_merge;
    so.chunk_budget = o.chunk_budget;
    sess->stream = ctx_.stream(std::move(so));
  }
  sess->has_stream = true;
  streamed_sessions_.push_back(sess);
}

void service::retire_idle_streams() {
  for (auto it = streamed_sessions_.begin(); it != streamed_sessions_.end();) {
    session_state& ss = **it;
    const bool idle = ss.closed.load(std::memory_order_acquire) &&
                      ss.queued.load(std::memory_order_acquire) == 0 &&
                      ss.in_flight.load(std::memory_order_acquire) == 0;
    if (!idle) {
      ++it;
      continue;
    }
    if (stream_pool_.size() < sopts_.stream_pool_limit) {
      stream_pool_.push_back({ss.opts.priority, ss.opts.deadline_cycles, ss.opts.ring_q,
                              ss.opts.no_merge, ss.opts.chunk_budget, ss.stream});
      pooled_.store(stream_pool_.size(), std::memory_order_release);
    } else {
      ss.stream.close();
    }
    ss.has_stream = false;
    it = streamed_sessions_.erase(it);
  }
}

bool service::dispatch(submission&& s, std::map<runtime::job_id, inflight_rec>& inflight) {
  auto sess = std::move(s.sess);
  runtime::job_id id = 0;
  try {
    ensure_stream(sess);
    id = std::visit([&](auto&& j) { return sess->stream.submit(std::move(j)); },
                    std::move(s.job));
  } catch (const std::exception& e) {
    // Deep validation failed (bad coefficients, capability mismatch, a
    // rescale naming another limb's prime...): the admission already
    // happened, so the rejection is delivered as a failed result, not an
    // exception on the submitting thread.
    sess->queued.fetch_sub(1, std::memory_order_acq_rel);
    runtime::job_result r;
    r.status = runtime::job_status::failed;
    r.error = e.what();
    deliver(*sess, s.st, s.t_submit, std::move(r));
    return false;
  }
  sess->queued.fetch_sub(1, std::memory_order_acq_rel);
  sess->in_flight.fetch_add(1, std::memory_order_acq_rel);
  // Queue wait: admission to stream dispatch — the ring + drainer share of
  // end-to-end latency, the number a saturated service inflates first.
  const auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           steady_clock::now() - s.t_submit)
                           .count();
  m_.queue_wait_ns->record(static_cast<u64>(wait_ns));
  if (auto* rec = ctx_.tracer()) {
    rec->record({.ts = rec->watermark(),
                 .dur = 0,
                 .a = static_cast<u64>(wait_ns),
                 .track = telemetry::kTrackService,
                 .arg = 0,
                 .op = telemetry::trace_op::ticket_admit});
  }
  inflight.emplace(id, inflight_rec{std::move(sess), std::move(s.st), s.t_submit});
  return true;
}

void service::deliver(session_state& ss, const std::shared_ptr<ticket::state>& st,
                      steady_clock::time_point t_submit, runtime::job_result&& r) {
  const auto lat = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       steady_clock::now() - t_submit)
                       .count();
  const bool ok = r.status == runtime::job_status::ok;
  const bool missed = r.deadline_missed;
  // Service-wide outcome counters and distributions live in the registry;
  // only the per-session mirrors still ride stats_mu_.
  m_.latency_ns->record(static_cast<u64>(lat));
  m_.exec_cycles->record(r.wall_cycles);
  (ok ? m_.completed : m_.failed)->add();
  if (missed) m_.deadline_misses->add();
  if (auto* rec = ctx_.tracer()) {
    rec->record({.ts = rec->watermark(),
                 .dur = 0,
                 .a = static_cast<u64>(lat),
                 .track = telemetry::kTrackService,
                 .arg = ok ? 0u : 1u,
                 .op = telemetry::trace_op::ticket_complete});
  }
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ss.latency.record_ns(static_cast<u64>(lat));
    if (ok) {
      ++ss.completed;
    } else {
      ++ss.failed;
    }
    if (missed) ++ss.deadline_misses;
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    drained_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lk(st->mu);
    st->res = std::move(r);
    st->done = true;
  }
  st->cv.notify_all();
}

void service::drain_loop() {
  std::map<runtime::job_id, inflight_rec> inflight;
  for (;;) {
    bool progress = false;
    bool flush_needed = false;
    submission s;
    // Drain the ring: every popped submission lands on its tenant's
    // stream, so one flush below turns this round's submissions into one
    // dispatch group per tenant — the batching the scheduler feeds on.
    while (queue_.try_pop(s)) {
      progress = true;
      flush_needed = dispatch(std::move(s), inflight) || flush_needed;
    }
    if (flush_needed) ctx_.flush();

    // Harvest completions and fulfill tickets.
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (auto r = ctx_.try_wait(it->first)) {
        inflight_rec rec = std::move(it->second);
        it = inflight.erase(it);
        // Drop the gauge before the ticket resolves, so a client that saw
        // get() return never observes itself still counted in flight.
        rec.sess->in_flight.fetch_sub(1, std::memory_order_acq_rel);
        deliver(*rec.sess, rec.st, rec.t_submit, std::move(*r));
        progress = true;
      } else {
        ++it;
      }
    }

    retire_idle_streams();
    if (progress) continue;
    if (stopping_.load(std::memory_order_acquire) && queue_.size_approx() == 0 &&
        inflight.empty()) {
      break;
    }
    // Idle: sleep until a producer wakes us or the poll interval lapses
    // (in-flight work completes on pool threads without a notification, so
    // the timeout doubles as the completion poll).
    std::unique_lock<std::mutex> lk(wake_mu_);
    drainer_idle_.store(true, std::memory_order_release);
    wake_cv_.wait_for(lk, inflight.empty() ? std::chrono::microseconds(500)
                                           : std::chrono::microseconds(50));
    drainer_idle_.store(false, std::memory_order_release);
  }
}

// ---- stats -----------------------------------------------------------------

namespace {

void fill_quantiles(service_stats& s, const latency_histogram& h) {
  s.latency_samples = h.count();
  s.p50_ns = h.quantile_ns(0.50);
  s.p95_ns = h.quantile_ns(0.95);
  s.p99_ns = h.quantile_ns(0.99);
  s.max_ns = h.max_ns();
}

}  // namespace

service_stats service::stats() const {
  service_stats s;
  // Outcome counters first, `submitted` last: each admission bumps
  // submitted before any outcome, so a concurrent snapshot never shows
  // more outcomes than submissions.  All reads come straight from the
  // registry instruments the hot paths update — nothing is mirrored.
  s.admitted = m_.admitted->value();
  s.rejected_queue_full = m_.rej_queue_full->value();
  s.rejected_backlog = m_.rej_backlog->value();
  s.rejected_in_flight = m_.rej_in_flight->value();
  s.rejected_closed = m_.rej_closed->value();
  s.completed = m_.completed->value();
  s.failed = m_.failed->value();
  s.deadline_misses = m_.deadline_misses->value();
  s.submitted = m_.submitted->value();
  s.rejected = s.rejected_queue_full + s.rejected_backlog + s.rejected_in_flight +
               s.rejected_closed;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (const auto& [sid, sess] : sessions_) {
      s.queued += sess->queued.load(std::memory_order_acquire);
      s.in_flight += sess->in_flight.load(std::memory_order_acquire);
    }
  }
  {
    const runtime::scheduler_stats rs = ctx_.stats();
    s.groups_merged = rs.groups_merged;
    s.preemption_yields = rs.preemption_yields;
  }
  fill_quantiles(s, m_.latency_ns->snapshot());
  return s;
}

service_stats service::session_stats(unsigned sid) const {
  const auto sess = session_of(sid);
  service_stats s;
  s.admitted = sess->admitted.load(std::memory_order_relaxed);
  s.rejected_queue_full = sess->rej_queue_full.load(std::memory_order_relaxed);
  s.rejected_backlog = sess->rej_backlog.load(std::memory_order_relaxed);
  s.rejected_in_flight = sess->rej_in_flight.load(std::memory_order_relaxed);
  s.rejected_closed = sess->rej_closed.load(std::memory_order_relaxed);
  s.submitted = sess->submitted.load(std::memory_order_acquire);
  s.rejected = s.rejected_queue_full + s.rejected_backlog + s.rejected_in_flight +
               s.rejected_closed;
  s.queued = sess->queued.load(std::memory_order_acquire);
  s.in_flight = sess->in_flight.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lk(stats_mu_);
  s.completed = sess->completed;
  s.failed = sess->failed;
  s.deadline_misses = sess->deadline_misses;
  fill_quantiles(s, sess->latency);
  return s;
}

void service::drain() {
  std::unique_lock<std::mutex> lk(stats_mu_);
  drained_cv_.wait(lk, [&] { return outstanding_.load(std::memory_order_acquire) == 0; });
}

}  // namespace bpntt::service
