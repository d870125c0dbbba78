// Multi-tenant service-layer soak: N client threads hammer one service
// through session handles for a fixed wall budget, with mixed traffic —
// forward/inverse transforms, negacyclic products, R-LWE encryptions (the
// crypto client's staged ring products, one polymul ticket each) and an
// RNS-RLWE limb tenant emitting relinearization-shaped traffic (evk
// products, base-extension lifts, congruence-preserving rescale
// corrections) — under the EDF ready-queue policy.
//
// The harness is a correctness gate as much as a benchmark: every client
// counts what it was admitted and what its tickets returned, and the run
// fails (exit 1) if a single result was lost or double-delivered, or if
// the service's own counters disagree with the clients' books.
//
// A second, deterministic section replays contended traces on a
// fixed-cost backend:
//   * EDF vs FIFO — T deadline tenants piled up behind a blocked group,
//     flushed loosest-first (FIFO's trap).  EDF must strictly reduce
//     deadline misses.
//   * merged vs unmerged — a mixed 8-tenant trace replayed with
//     cross-stream batching off and on.  The merged replay must absorb
//     groups (groups_merged > 0) and finish at a strictly lower virtual
//     makespan with bit-identical outputs.
//   * preemptive vs non-preemptive EDF — a bulk group with a chunk budget
//     must yield its banks to a deadline tenant mid-plan, turning that
//     tenant's miss into a hit.
// Any of these inequalities failing exits non-zero.
//
// Usage: bench_soak [--json <path>] [--threads <N>] [--millis <M>] [--trace <path>]
//   --json     also emit the run as JSON (CI perf artifact, conventionally
//              BENCH_soak.json).  Wall-clock metrics (throughput, latency
//              quantiles) are advisory in trend checks — they measure the
//              host, not the model.  The document embeds the service's full
//              metrics registry under "metrics" (one to_json() — counters,
//              gauges, and the latency/queue-wait/exec histograms).
//   --threads  client threads (default 4, min 4 — the soak is only a soak
//              with real submission concurrency)
//   --millis   wall budget per run (default 1000)
//   --trace    run the soak service with virtual-timeline tracing on and
//              export the Chrome trace-event JSON here after the drain
//              (open it in Perfetto / chrome://tracing).  Tracing is off —
//              and costs nothing — unless this flag is given.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/table.h"
#include "common/xoshiro.h"
#include "crypto/rlwe.h"
#include "nttmath/primes.h"
#include "runtime/context.h"
#include "service/service.h"

namespace {

using namespace bpntt;
using runtime::u64;

// The soak ring: 13-bit envelope so the RNS-RLWE tenant's 12-bit limb
// primes validate alongside the native 3137 ring.
constexpr unsigned kOrder = 32;
constexpr u64 kRingQ = 3137;
constexpr unsigned kRingBits = 13;

std::vector<u64> random_poly(u64 q, common::xoshiro256ss& rng) {
  std::vector<u64> p(kOrder);
  for (auto& c : p) c = rng.below(q);
  return p;
}

// One tenant archetype; threads map onto these round-robin.
struct tenant_class {
  const char* name;
  service::session_options opts;
};

// Per-client books: the ground truth the service's counters must match.
struct client_book {
  u64 admitted = 0;  // submit() returned a ticket
  u64 rejected = 0;  // submit() threw admission_error
  u64 received = 0;  // ticket.get() returned
  u64 ok = 0;
  u64 failed = 0;
};

struct soak_result {
  unsigned threads = 0;
  double wall_s = 0.0;
  client_book totals;
  service::service_stats stats;
  runtime::scheduler_stats rt;
  std::vector<std::pair<std::string, service::service_stats>> per_session;
  u64 lost = 0;
  u64 duplicated = 0;
  double throughput = 0.0;
  std::string metrics_json;  // the service registry, one to_json()
};

soak_result run_soak(unsigned threads, unsigned millis, const std::string& trace_path) {
  // Two 12-bit NTT primes for the RNS-RLWE tenant: its session rides the
  // first limb's ring, the second plays the dropped / source limb of the
  // rescale and base-extension jobs.
  const auto limbs = math::first_k_ntt_primes(12, kOrder, 2, true);
  const u64 limb = limbs[0];
  const u64 partner = limbs[1];
  const tenant_class classes[] = {
      {"latency", {.priority = 8, .deadline_cycles = 20'000, .max_queued = 64,
                   .max_in_flight = 64}},
      {"bulk", {.priority = 0, .chunk_budget = 32, .max_queued = 512,
                .max_in_flight = 512}},
      {"rns-rlwe", {.priority = 4, .ring_q = limb}},
      {"crypto", {.priority = 2}},
  };
  constexpr unsigned kClasses = sizeof(classes) / sizeof(classes[0]);
  crypto::param_set ring;
  ring.name = "soak";
  ring.n = kOrder;
  ring.q = kRingQ;
  ring.min_tile_bits = kRingBits;

  auto ropts = runtime::runtime_options()
                   .with_ring(kOrder, kRingQ, kRingBits)
                   .with_backend(runtime::backend_kind::sram)
                   .with_array(64, 39)
                   .with_subarrays(4)
                   .with_topology(2, 1, 4)
                   .with_threads(2)
                   .with_schedule(runtime::schedule_policy::edf, /*aging=*/8)
                   .with_cross_stream_batching();
  if (!trace_path.empty()) ropts.with_tracing();
  service::service svc(std::move(ropts));

  std::vector<service::session> sessions;
  sessions.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    sessions.push_back(svc.open_session(classes[t % kClasses].opts));
  }

  std::vector<client_book> books(threads);
  const auto t0 = std::chrono::steady_clock::now();
  const auto stop_at = t0 + std::chrono::milliseconds(millis);

  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      auto sess = sessions[t];
      auto& book = books[t];
      const unsigned cls = t % kClasses;
      const u64 q = cls == 2 ? limb : kRingQ;
      common::xoshiro256ss rng(1000 + t);
      // Admission with back-off: a rejection is the backpressure contract,
      // not an error — note it, ease off, and let the caller retry.
      const auto admit = [&](auto&& job, std::vector<service::ticket>& batch) {
        try {
          batch.push_back(sess.submit(std::move(job)));
          ++book.admitted;
          return true;
        } catch (const service::admission_error&) {
          ++book.rejected;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          return false;
        }
      };
      const auto reap = [&](std::vector<service::ticket>& batch) {
        std::vector<runtime::job_result> out;
        for (auto& tk : batch) {
          out.push_back(tk.get());
          ++book.received;
          ++(out.back().status == runtime::job_status::ok ? book.ok : book.failed);
        }
        return out;
      };
      // The crypto tenant's ring products: one polymul ticket per pair on
      // this session, retried until admitted (a flow cannot drop a product).
      const auto batch_mul = [&](std::vector<core::polymul_pair> pairs) {
        std::vector<service::ticket> batch;
        for (auto& pr : pairs) {
          while (!admit(runtime::polymul_job{pr.a, pr.b}, batch)) {
          }
        }
        std::vector<crypto::poly> products;
        for (auto& r : reap(batch)) {
          if (r.status != runtime::job_status::ok) throw std::runtime_error(r.error);
          products.push_back(std::move(r.outputs.front()));
        }
        return products;
      };
      while (std::chrono::steady_clock::now() < stop_at) {
        if (cls == 3) {
          // crypto: end-to-end R-LWE encryptions, 8 flows per staged batch.
          std::vector<crypto::rlwe_request> requests(8);
          for (auto& rq : requests) {
            rq.message.resize(kOrder);
            for (auto& m : rq.message) m = rng() & 1;
            rq.seed = rng();
          }
          try {
            (void)crypto::rlwe_encrypt_batch(ring, requests, batch_mul);
          } catch (const std::runtime_error&) {
            // A failed product is already in the books; drop the flow.
          }
          continue;
        }
        // A batch of submissions, then reap: keeps a backlog in front of
        // the drainer without letting tickets pile up unboundedly.
        std::vector<service::ticket> batch;
        for (unsigned i = 0; i < 8; ++i) {
          switch (cls) {
            case 1:  // bulk: ring products
              admit(runtime::polymul_job{.a = random_poly(q, rng), .b = random_poly(q, rng)},
                    batch);
              break;
            case 2:  // rns-rlwe: what a leveled client's relinearization
                     // emits on its limb stream — the evk product, the
                     // base-extension lift, the modulus-switch correction
              switch (i % 3) {
                case 0:
                  admit(runtime::polymul_job{.a = random_poly(q, rng), .b = random_poly(q, rng)},
                        batch);
                  break;
                case 1:
                  admit(runtime::rns_base_extend_job{.prime = limb,
                                                     .source_primes = {partner},
                                                     .residues = {random_poly(partner, rng)}},
                        batch);
                  break;
                default:
                  admit(runtime::rns_rescale_job{.prime = limb,
                                                 .drop_prime = partner,
                                                 .x = random_poly(limb, rng),
                                                 .dropped = random_poly(partner, rng),
                                                 .congruence = 2},
                        batch);
              }
              break;
            default:  // latency: transforms both ways
              admit(runtime::ntt_job{.dir = (rng() & 1) ? core::transform_dir::forward
                                                        : core::transform_dir::inverse,
                                     .coeffs = random_poly(q, rng)},
                    batch);
          }
        }
        (void)reap(batch);
      }
    });
  }
  for (auto& c : clients) c.join();
  for (auto& s : sessions) s.close();
  svc.drain();
  if (!trace_path.empty()) {
    // Quiescent after drain(): export the whole run's virtual timeline.
    svc.export_trace(trace_path);
    const auto probe = svc.trace_stats();
    std::printf("trace: %llu events (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(probe.events_recorded),
                static_cast<unsigned long long>(probe.events_dropped), trace_path.c_str());
  }

  soak_result out;
  out.threads = threads;
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (const auto& b : books) {
    out.totals.admitted += b.admitted;
    out.totals.rejected += b.rejected;
    out.totals.received += b.received;
    out.totals.ok += b.ok;
    out.totals.failed += b.failed;
  }
  out.stats = svc.stats();
  out.rt = svc.runtime_stats();
  out.metrics_json = svc.metrics().to_json();
  for (unsigned t = 0; t < threads; ++t) {
    out.per_session.emplace_back(
        std::string(classes[t % kClasses].name) + "#" + std::to_string(t),
        sessions[t].stats());
  }
  // The gate: every admitted job produced exactly one delivered result,
  // on both sides of the ledger.
  const u64 delivered = out.stats.completed + out.stats.failed;
  out.lost = out.totals.admitted > out.totals.received
                 ? out.totals.admitted - out.totals.received
                 : (out.totals.admitted > delivered ? out.totals.admitted - delivered : 0);
  out.duplicated = out.totals.received > out.totals.admitted
                       ? out.totals.received - out.totals.admitted
                       : (delivered > out.totals.admitted ? delivered - out.totals.admitted : 0);
  if (out.stats.admitted != out.totals.admitted) {
    // A books/counters disagreement is a lost-or-duplicated accounting bug
    // even when the two deltas above happen to cancel.
    out.lost += 1;
  }
  out.throughput = out.wall_s > 0 ? static_cast<double>(out.totals.received) / out.wall_s : 0.0;
  return out;
}

// ---- EDF vs FIFO on one deterministic contended trace ----------------------

// Fixed-cost backend: every dispatch costs exactly kGroupCost on the
// virtual timeline (or, with a per-job cost, kGroupCost per job — the
// shape the preemption trace needs), and the first dispatch blocks until
// released so the whole trace piles into the ready queue before anything
// is ordered.
constexpr u64 kGroupCost = 1000;

class fixed_cost_backend final : public runtime::backend {
 public:
  explicit fixed_cost_backend(u64 cost_per_job = 0) : cost_per_job_(cost_per_job) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "fixed-cost"; }
  [[nodiscard]] runtime::backend_caps capabilities() const override {
    runtime::backend_caps caps;
    caps.polymul = true;
    return caps;
  }
  runtime::batch_result run_ntt(const std::vector<std::vector<u64>>& polys,
                                core::transform_dir,
                                const runtime::dispatch_hints&) override {
    maybe_block();
    runtime::batch_result r;
    r.outputs = polys;
    r.waves = 1;
    r.wall_cycles = dispatch_cost(polys.size());
    return r;
  }
  runtime::batch_result run_polymul(const std::vector<core::polymul_pair>& pairs,
                                    const runtime::dispatch_hints&) override {
    maybe_block();
    runtime::batch_result r;
    for (const auto& pr : pairs) r.outputs.push_back(pr.a);
    r.waves = 1;
    r.wall_cycles = dispatch_cost(pairs.size());
    return r;
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  [[nodiscard]] u64 dispatch_cost(std::size_t jobs) const {
    return cost_per_job_ == 0 ? kGroupCost : cost_per_job_ * jobs;
  }
  void maybe_block() {
    std::unique_lock<std::mutex> lk(mu_);
    if (blocked_once_) return;
    blocked_once_ = true;
    cv_.wait(lk, [&] { return released_; });
  }
  const u64 cost_per_job_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_once_ = false;
  bool released_ = false;
};

// T deadline tenants behind a blocker, flushed loosest-first.  Tenant of
// tightness rank k (k = 1 tightest) gets budget (k + 1) * kGroupCost:
// feasible under EDF (rank k ends exactly on budget), while FIFO — which
// dispatches in flush order — overruns every rank in the latter half.
u64 trace_misses_under(runtime::schedule_policy policy, unsigned tenants) {
  auto owned = std::make_unique<fixed_cost_backend>();
  auto* gate = owned.get();
  runtime::context ctx(runtime::runtime_options()
                           .with_ring(kOrder, kRingQ, kRingBits)
                           .with_array(64, 39)
                           .with_subarrays(4)
                           .with_schedule(policy)
                           .with_threads(2),
                       std::move(owned));
  common::xoshiro256ss rng(7);

  (void)ctx.submit(runtime::ntt_job{.coeffs = random_poly(kRingQ, rng)});
  ctx.flush();  // the blocker: holds the pseudo-resource until released

  std::vector<runtime::stream> streams;
  streams.reserve(tenants);
  for (unsigned rank = tenants; rank >= 1; --rank) {  // loosest-first flush
    streams.push_back(ctx.stream({.deadline_cycles = (rank + 1) * kGroupCost}));
    (void)streams.back().submit(
        runtime::ntt_job{.coeffs = random_poly(kRingQ, rng)});
    streams.back().flush();
  }
  gate->release();
  ctx.sync();
  return ctx.stats().deadline_misses;
}

// ---- merged vs unmerged on one mixed tenant trace --------------------------

struct merge_trace_result {
  u64 makespan = 0;       // virtual-timeline makespan of the whole trace
  u64 groups_merged = 0;  // ready groups absorbed into a merged dispatch
  std::vector<std::vector<u64>> outputs;  // all job outputs, submission order
};

// T tenants — transforms and ring products alternating — pile up behind a
// blocked group, so the whole trace is in the ready queue when the
// scheduler first orders it.  With cross-stream batching off the groups
// serialize on the pseudo-resource, one fixed-cost dispatch each; with it
// on, the first runnable group absorbs every compatible peer and the
// trace collapses to one merged dispatch per job kind.
merge_trace_result trace_merge_under(bool merge_on, unsigned tenants) {
  auto owned = std::make_unique<fixed_cost_backend>();
  auto* gate = owned.get();
  auto opts = runtime::runtime_options()
                  .with_ring(kOrder, kRingQ, kRingBits)
                  .with_array(64, 39)
                  .with_subarrays(4)
                  .with_threads(2);
  if (merge_on) opts.with_cross_stream_batching();
  runtime::context ctx(std::move(opts), std::move(owned));
  common::xoshiro256ss rng(11);

  (void)ctx.submit(runtime::ntt_job{.coeffs = random_poly(kRingQ, rng)});
  ctx.flush();  // the blocker: holds the pseudo-resource until released

  std::vector<runtime::stream> streams;
  std::vector<runtime::job_id> ids;
  streams.reserve(tenants);
  for (unsigned t = 0; t < tenants; ++t) {
    streams.push_back(ctx.stream({}));
    if ((t & 1) != 0) {
      ids.push_back(streams.back().submit(runtime::polymul_job{
          .a = random_poly(kRingQ, rng), .b = random_poly(kRingQ, rng)}));
    } else {
      ids.push_back(
          streams.back().submit(runtime::ntt_job{.coeffs = random_poly(kRingQ, rng)}));
    }
    streams.back().flush();
  }
  gate->release();
  ctx.sync();

  merge_trace_result out;
  for (const runtime::job_id id : ids) {
    auto r = ctx.wait(id);
    for (auto& o : r.outputs) out.outputs.push_back(std::move(o));
  }
  const auto st = ctx.stats();
  out.makespan = st.wall_cycles;
  out.groups_merged = st.groups_merged;
  return out;
}

// ---- preemptive vs non-preemptive EDF --------------------------------------

struct preempt_trace_result {
  u64 misses = 0;
  u64 yields = 0;
};

// A bulk stream's 8-job group holds the pseudo-resource (per-job cost, so
// running it whole takes 8 * kGroupCost) while a deadline tenant with a
// 4 * kGroupCost budget queues behind it.  Without a chunk budget the
// tenant waits out the whole bulk group and misses; with one, the bulk
// group yields at its first chunk boundary and the tenant makes it.
preempt_trace_result trace_preempt_under(u64 bulk_chunk_budget) {
  auto owned = std::make_unique<fixed_cost_backend>(/*cost_per_job=*/kGroupCost);
  auto* gate = owned.get();
  runtime::context ctx(runtime::runtime_options()
                           .with_ring(kOrder, kRingQ, kRingBits)
                           .with_array(64, 39)
                           .with_subarrays(4)
                           .with_schedule(runtime::schedule_policy::edf)
                           .with_threads(2),
                       std::move(owned));
  common::xoshiro256ss rng(13);

  auto bulk = ctx.stream({.chunk_budget = bulk_chunk_budget});
  for (unsigned i = 0; i < 8; ++i) {
    (void)bulk.submit(runtime::ntt_job{.coeffs = random_poly(kRingQ, rng)});
  }
  bulk.flush();  // claims the pseudo-resource; first dispatch blocks

  auto urgent = ctx.stream({.deadline_cycles = 4 * kGroupCost});
  (void)urgent.submit(runtime::ntt_job{.coeffs = random_poly(kRingQ, rng)});
  urgent.flush();

  gate->release();
  ctx.sync();
  const auto st = ctx.stats();
  return {st.deadline_misses, st.preemption_yields};
}

// ---- reporting --------------------------------------------------------------

// Deterministic scheduler traces, bundled for reporting and gating.
struct trace_results {
  unsigned tenants = 0;
  u64 fifo_misses = 0;
  u64 edf_misses = 0;
  merge_trace_result unmerged;
  merge_trace_result merged;
  preempt_trace_result nonpreemptive;
  preempt_trace_result preemptive;
};

void write_json(const std::string& path, const soak_result& soak,
                const trace_results& tr) {
  std::string out = "{\n  \"bench\": \"soak\",\n";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"threads\": %u,\n  \"wall_s\": %.3f,\n  \"policy\": \"edf\",\n",
                soak.threads, soak.wall_s);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"totals\": {\"submitted\": %llu, \"admitted\": %llu, \"rejected\": %llu, "
      "\"completed\": %llu, \"failed\": %llu, \"lost\": %llu, \"duplicated\": %llu, "
      "\"throughput_jobs_per_s\": %.1f, \"deadline_misses\": %llu, "
      "\"deadline_miss_rate\": %.4f, \"p50_ns\": %llu, \"p95_ns\": %llu, "
      "\"p99_ns\": %llu, \"max_ns\": %llu},\n",
      static_cast<unsigned long long>(soak.stats.submitted),
      static_cast<unsigned long long>(soak.stats.admitted),
      static_cast<unsigned long long>(soak.stats.rejected),
      static_cast<unsigned long long>(soak.stats.completed),
      static_cast<unsigned long long>(soak.stats.failed),
      static_cast<unsigned long long>(soak.lost),
      static_cast<unsigned long long>(soak.duplicated), soak.throughput,
      static_cast<unsigned long long>(soak.stats.deadline_misses),
      soak.stats.deadline_miss_rate(),
      static_cast<unsigned long long>(soak.stats.p50_ns),
      static_cast<unsigned long long>(soak.stats.p95_ns),
      static_cast<unsigned long long>(soak.stats.p99_ns),
      static_cast<unsigned long long>(soak.stats.max_ns));
  out += buf;
  out += "  \"sessions\": [\n";
  for (std::size_t i = 0; i < soak.per_session.size(); ++i) {
    const auto& [name, s] = soak.per_session[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"admitted\": %llu, \"rejected\": %llu, "
                  "\"completed\": %llu, \"failed\": %llu, \"deadline_miss_rate\": %.4f, "
                  "\"p50_ns\": %llu, \"p95_ns\": %llu, \"p99_ns\": %llu}%s\n",
                  name.c_str(), static_cast<unsigned long long>(s.admitted),
                  static_cast<unsigned long long>(s.rejected),
                  static_cast<unsigned long long>(s.completed),
                  static_cast<unsigned long long>(s.failed), s.deadline_miss_rate(),
                  static_cast<unsigned long long>(s.p50_ns),
                  static_cast<unsigned long long>(s.p95_ns),
                  static_cast<unsigned long long>(s.p99_ns),
                  i + 1 < soak.per_session.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n";
  // Service-wide scheduler counters from the soak itself (merging is on
  // for the soak service, so groups_merged reflects live contention).
  std::snprintf(buf, sizeof buf,
                "  \"scheduler\": {\"groups_merged\": %llu, \"preemption_yields\": %llu},\n",
                static_cast<unsigned long long>(soak.rt.groups_merged),
                static_cast<unsigned long long>(soak.rt.preemption_yields));
  out += buf;
  // The unified registry, verbatim: every instrument the stack published —
  // the trend checker reads service.queue_wait_ns quantiles from here.
  out += "  \"metrics\": " + soak.metrics_json + ",\n";
  std::snprintf(buf, sizeof buf,
                "  \"edf_vs_fifo\": {\"trace_tenants\": %u, \"fifo_deadline_misses\": "
                "%llu, \"edf_deadline_misses\": %llu},\n",
                tr.tenants, static_cast<unsigned long long>(tr.fifo_misses),
                static_cast<unsigned long long>(tr.edf_misses));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "  \"merge_trace\": {\"trace_tenants\": %u, \"unmerged_makespan_cycles\": "
                "%llu, \"merged_makespan_cycles\": %llu, \"groups_merged\": %llu},\n",
                tr.tenants, static_cast<unsigned long long>(tr.unmerged.makespan),
                static_cast<unsigned long long>(tr.merged.makespan),
                static_cast<unsigned long long>(tr.merged.groups_merged));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "  \"preempt_trace\": {\"nonpreemptive_misses\": %llu, "
                "\"preemptive_misses\": %llu, \"preemption_yields\": %llu}\n}\n",
                static_cast<unsigned long long>(tr.nonpreemptive.misses),
                static_cast<unsigned long long>(tr.preemptive.misses),
                static_cast<unsigned long long>(tr.preemptive.yields));
  out += buf;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("soak: cannot open --json path " + path);
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("\nwrote %zu JSON bytes to %s\n", out.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string trace_path;
  unsigned threads = 4;
  unsigned millis = 1000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      if (threads < 4 || threads > 64) {
        std::fprintf(stderr, "soak: --threads must be in [4, 64]\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--millis") == 0 && i + 1 < argc) {
      millis = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      if (millis < 100 || millis > 60'000) {
        std::fprintf(stderr, "soak: --millis must be in [100, 60000]\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json <path>] [--threads <N>] [--millis <M>] "
                   "[--trace <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("=== service-layer soak: %u client threads, %u ms wall budget, edf%s ===\n\n",
              threads, millis, trace_path.empty() ? "" : ", traced");
  const auto soak = run_soak(threads, millis, trace_path);

  bpntt::common::text_table table(
      {"Session", "Admitted", "Rejected", "Completed", "Failed", "Miss rate", "p50(us)",
       "p95(us)", "p99(us)"});
  for (const auto& [name, s] : soak.per_session) {
    char miss[32];
    std::snprintf(miss, sizeof miss, "%.2f%%", 100.0 * s.deadline_miss_rate());
    table.add_row({name, std::to_string(s.admitted), std::to_string(s.rejected),
                   std::to_string(s.completed), std::to_string(s.failed), miss,
                   std::to_string(s.p50_ns / 1000), std::to_string(s.p95_ns / 1000),
                   std::to_string(s.p99_ns / 1000)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("totals: %llu admitted, %llu rejected (backpressure), %llu completed, "
              "%llu failed, %.0f jobs/s\n",
              static_cast<unsigned long long>(soak.totals.admitted),
              static_cast<unsigned long long>(soak.totals.rejected),
              static_cast<unsigned long long>(soak.stats.completed),
              static_cast<unsigned long long>(soak.stats.failed), soak.throughput);
  std::printf("latency: p50 %llu us, p95 %llu us, p99 %llu us, max %llu us; "
              "deadline miss rate %.2f%%\n",
              static_cast<unsigned long long>(soak.stats.p50_ns / 1000),
              static_cast<unsigned long long>(soak.stats.p95_ns / 1000),
              static_cast<unsigned long long>(soak.stats.p99_ns / 1000),
              static_cast<unsigned long long>(soak.stats.max_ns / 1000),
              100.0 * soak.stats.deadline_miss_rate());
  std::printf("ledger: lost %llu, duplicated %llu\n",
              static_cast<unsigned long long>(soak.lost),
              static_cast<unsigned long long>(soak.duplicated));

  trace_results tr;
  tr.tenants = 8;
  tr.fifo_misses = trace_misses_under(runtime::schedule_policy::priority, tr.tenants);
  tr.edf_misses = trace_misses_under(runtime::schedule_policy::edf, tr.tenants);
  std::printf("\nedf vs fifo on one contended %u-tenant trace (fixed-cost backend): "
              "fifo %llu misses, edf %llu misses\n",
              tr.tenants, static_cast<unsigned long long>(tr.fifo_misses),
              static_cast<unsigned long long>(tr.edf_misses));

  tr.unmerged = trace_merge_under(false, tr.tenants);
  tr.merged = trace_merge_under(true, tr.tenants);
  std::printf("cross-stream batching on the mixed %u-tenant trace: makespan %llu -> "
              "%llu cycles, %llu groups merged\n",
              tr.tenants, static_cast<unsigned long long>(tr.unmerged.makespan),
              static_cast<unsigned long long>(tr.merged.makespan),
              static_cast<unsigned long long>(tr.merged.groups_merged));

  tr.nonpreemptive = trace_preempt_under(0);
  tr.preemptive = trace_preempt_under(2);
  std::printf("preemptive vs non-preemptive edf on the chunked bulk trace: misses "
              "%llu -> %llu, %llu yields\n",
              static_cast<unsigned long long>(tr.nonpreemptive.misses),
              static_cast<unsigned long long>(tr.preemptive.misses),
              static_cast<unsigned long long>(tr.preemptive.yields));
  std::printf("soak service scheduler counters: %llu groups merged, %llu preemption "
              "yields\n",
              static_cast<unsigned long long>(soak.rt.groups_merged),
              static_cast<unsigned long long>(soak.rt.preemption_yields));

  if (!json_path.empty()) write_json(json_path, soak, tr);

  // The gates that make the soak a test: a lost or double-delivered result
  // is a service-layer bug; EDF failing to beat FIFO on the trap trace
  // means deadline ordering stopped working; and the batching/preemption
  // inequalities pin the new scheduler capabilities end to end.
  bool ok = true;
  if (soak.lost != 0 || soak.duplicated != 0) {
    std::fprintf(stderr, "soak: FAILED — results lost (%llu) or duplicated (%llu)\n",
                 static_cast<unsigned long long>(soak.lost),
                 static_cast<unsigned long long>(soak.duplicated));
    ok = false;
  }
  if (tr.edf_misses >= tr.fifo_misses) {
    std::fprintf(stderr, "soak: FAILED — edf (%llu misses) must strictly beat fifo (%llu)\n",
                 static_cast<unsigned long long>(tr.edf_misses),
                 static_cast<unsigned long long>(tr.fifo_misses));
    ok = false;
  }
  if (tr.merged.groups_merged == 0) {
    std::fprintf(stderr, "soak: FAILED — the mixed %u-tenant trace must merge groups\n",
                 tr.tenants);
    ok = false;
  }
  if (tr.merged.makespan >= tr.unmerged.makespan) {
    std::fprintf(stderr,
                 "soak: FAILED — merged makespan (%llu) must strictly beat unmerged "
                 "(%llu)\n",
                 static_cast<unsigned long long>(tr.merged.makespan),
                 static_cast<unsigned long long>(tr.unmerged.makespan));
    ok = false;
  }
  if (tr.merged.outputs != tr.unmerged.outputs) {
    std::fprintf(stderr, "soak: FAILED — merged outputs diverge from unmerged outputs\n");
    ok = false;
  }
  if (tr.preemptive.misses >= tr.nonpreemptive.misses || tr.preemptive.yields == 0) {
    std::fprintf(stderr,
                 "soak: FAILED — preemptive edf (%llu misses, %llu yields) must "
                 "strictly beat non-preemptive (%llu misses)\n",
                 static_cast<unsigned long long>(tr.preemptive.misses),
                 static_cast<unsigned long long>(tr.preemptive.yields),
                 static_cast<unsigned long long>(tr.nonpreemptive.misses));
    ok = false;
  }
  return ok ? 0 : 1;
}
