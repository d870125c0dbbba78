// Stream handles: independent in-order submission lanes of one
// runtime::context.
//
//   context ctx(opts);                                   // >= 2 banks
//   auto fast = ctx.stream({.priority = 10});
//   auto bulk = ctx.stream({.deadline_cycles = 100000});
//   auto a = fast.submit(ntt_job{...});
//   auto b = bulk.submit(ntt_job{...});
//   fast.flush();  bulk.flush();   // two dispatch groups, disjoint banks
//   ctx.wait(a);   ctx.wait(b);
//
// Each stream is its own FIFO: jobs submitted to one stream flush and
// execute in submission order.  Different streams are independent — the
// scheduler places them on disjoint bank subsets of a banked backend so
// their dispatch groups genuinely overlap, and orders contended dispatches
// by priority (or earliest deadline first under schedule_policy::edf).  A
// stream handle is a lightweight view; copying it does not copy the queue.
// Thread contract matches the context: one client thread drives every
// handle — multi-threaded tenants go through the service layer
// (src/service/), whose drainer is that one client.
#pragma once

#include <cstddef>
#include <vector>

#include "runtime/job.h"

namespace bpntt::runtime {

class context;

// Per-stream scheduling policy, fixed at creation.
struct stream_options {
  // Higher-priority streams dispatch first when competing for the same
  // banks (ties break in flush order).
  int priority = 0;
  // Completion budget on the virtual timeline, measured from the stream's
  // flush; 0 = none.  Jobs finishing later carry job_result::deadline_missed
  // and count into scheduler_stats::deadline_misses — accounting, not
  // preemption.
  u64 deadline_cycles = 0;
  // Explicit bank placement (ids into the backend's bank map).  Empty =
  // topology-aware auto placement: on a multi-channel device the stream
  // gets one channel's banks, on a flat multi-bank device one bank,
  // round-robin by stream id.
  std::vector<unsigned> bank_set;
  // Ring override: every job on this stream runs at this word-sized
  // modulus instead of the context ring's (0 = context ring).  The order n
  // and tile width stay as configured.  This is how an RNS limb stream
  // carries its residue channel: context::stream() validates the modulus
  // (odd prime, full negacyclic support at n, inside the backend's
  // envelope) and submissions validate coefficients against it.
  u64 ring_q = 0;
  // Opt this stream out of cross-stream batching
  // (runtime_options::merge_streams): its groups are never absorbed into
  // another stream's dispatch and never absorb others.  For tenants whose
  // latency accounting must not share a dispatch (or whose bank residency
  // must stay exclusive).
  bool no_merge = false;
  // Preemptive-yield budget: dispatch this stream's groups in chunks of at
  // most this many jobs, offering the banks to any earlier-ordered group
  // (under the configured policy) between chunks.  0 = unbounded — whole
  // per-kind dispatches, the legacy behaviour.  A group merged with other
  // streams' groups (runtime_options::merge_streams) runs whole.
  u64 chunk_budget = 0;
};

class stream {
 public:
  // An unbound handle (for declare-then-assign); every operation on it
  // throws std::logic_error until a handle from context::stream() is
  // assigned over it.
  stream() = default;

  // Validate and enqueue on this stream's FIFO; same contract as
  // context::submit.  An rns_rescale_job must name this stream's ring
  // modulus as its `prime` — the rescale correction of limb i rides limb
  // i's stream; an rns_base_extend_job likewise names this stream's ring
  // as its target `prime` — the new limb's extension rides the new limb's
  // stream.
  job_id submit(ntt_job j);
  job_id submit(polymul_job j);
  job_id submit(rns_rescale_job j);
  job_id submit(rns_base_extend_job j);

  // Hand this stream's pending jobs to the scheduler as one dispatch group
  // (partitioned by job kind, executed in order); returns without blocking.
  void flush();

  // Flush any pending jobs, then release the stream's slot in the context
  // (already-submitted jobs stay waitable by id).  A service opening one
  // stream per request must close them — stream state is otherwise kept
  // for the context's lifetime.  Operations on a closed stream throw
  // std::logic_error.
  void close();

  [[nodiscard]] unsigned id() const noexcept { return id_; }
  // The ring modulus override this stream was opened with (0 = the
  // context ring).
  [[nodiscard]] u64 ring_q() const;
  // Jobs enqueued on this stream and not yet flushed.
  [[nodiscard]] std::size_t pending() const;
  // The bank subset the scheduler reserved for this stream (empty on
  // non-banked backends, where streams share the single resource).
  [[nodiscard]] std::vector<unsigned> bank_set() const;

 private:
  friend class context;
  stream(context* ctx, unsigned id) noexcept : ctx_(ctx), id_(id) {}

  // The owning context, or a precise throw for unbound handles.
  [[nodiscard]] context& bound() const;

  context* ctx_ = nullptr;
  unsigned id_ = 0;
};

}  // namespace bpntt::runtime
