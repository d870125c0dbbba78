#include "telemetry/trace.h"

#include <algorithm>
#include <bit>

namespace bpntt::telemetry {

const char* to_string(trace_op op) noexcept {
  switch (op) {
    case trace_op::ntt_forward: return "ntt_forward";
    case trace_op::ntt_inverse: return "ntt_inverse";
    case trace_op::polymul: return "polymul";
    case trace_op::rescale: return "rescale";
    case trace_op::base_extend: return "base_extend";
    case trace_op::group_enqueue: return "group_enqueue";
    case trace_op::bank_claim: return "bank_claim";
    case trace_op::merge_absorb: return "merge_absorb";
    case trace_op::preempt_yield: return "preempt_yield";
    case trace_op::deadline_miss: return "deadline_miss";
    case trace_op::cache_hit: return "cache_hit";
    case trace_op::cache_miss: return "cache_miss";
    case trace_op::backend_batch: return "backend_batch";
    case trace_op::ticket_admit: return "ticket_admit";
    case trace_op::ticket_complete: return "ticket_complete";
    case trace_op::queue_depth: return "queue_depth";
    case trace_op::resident_evict: return "resident_evict";
    case trace_op::resident_pin: return "resident_pin";
    case trace_op::resident_unpin: return "resident_unpin";
    case trace_op::resident_move: return "resident_move";
    case trace_op::affinity_hit: return "affinity_hit";
    case trace_op::resident_rows: return "resident_rows";
  }
  return "unknown";
}

namespace {

// Thread-local producer-slot cache.  One entry per (recorder, thread) pair
// this thread has recorded into; recorders are identified by a unique id
// (never a reused address).  The common case — one live traced context —
// hits `last` with a single compare.  The vector is trimmed if a thread
// outlives many recorders; losing a mapping merely re-registers the thread
// into a fresh slot (the abandoned ring is never written again, so the
// SPSC ownership invariant holds).
struct tl_slot_entry {
  u64 recorder_id = 0;
  unsigned slot = 0;
};

thread_local tl_slot_entry tl_last{};
thread_local std::vector<tl_slot_entry> tl_slots;

std::atomic<u64> g_next_recorder_id{1};

constexpr std::size_t kTlTrim = 64;

std::size_t round_up_pow2(std::size_t v) {
  if (v < 2) return 2;
  return std::bit_ceil(v);
}

}  // namespace

trace_recorder::trace_recorder(std::size_t capacity)
    : cap_(round_up_pow2(capacity)),
      recorder_id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {
  for (ring& r : rings_) r.slots.resize(cap_);
}

unsigned trace_recorder::slot_of_this_thread() noexcept {
  if (tl_last.recorder_id == recorder_id_) return tl_last.slot;
  for (const tl_slot_entry& e : tl_slots) {
    if (e.recorder_id == recorder_id_) {
      tl_last = e;
      return e.slot;
    }
  }
  // First record from this thread: claim a ring (or learn that none are
  // left and remember that, so the overflow path stays one compare too).
  const unsigned claimed = next_slot_.fetch_add(1, std::memory_order_relaxed);
  const unsigned slot = claimed < kMaxProducers ? claimed : kNoSlot;
  if (tl_slots.size() >= kTlTrim) {
    tl_slots.erase(tl_slots.begin(), tl_slots.begin() + static_cast<std::ptrdiff_t>(kTlTrim / 2));
  }
  tl_slots.push_back({recorder_id_, slot});
  tl_last = tl_slots.back();
  return slot;
}

void trace_recorder::record(const trace_event& e) noexcept {
  const unsigned slot = slot_of_this_thread();
  if (slot == kNoSlot) {
    unslotted_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring& r = rings_[slot];
  if (r.tail - r.head == cap_) {
    // Full: drop the oldest retained event, keep the newest.
    ++r.head;
    r.dropped.fetch_add(1, std::memory_order_relaxed);
  }
  r.slots[r.tail & (cap_ - 1)] = e;
  ++r.tail;
  r.recorded.fetch_add(1, std::memory_order_relaxed);
}

u64 trace_recorder::events_recorded() const noexcept {
  u64 total = 0;
  for (const ring& r : rings_) total += r.recorded.load(std::memory_order_relaxed);
  return total;
}

u64 trace_recorder::events_dropped() const noexcept {
  u64 total = unslotted_dropped_.load(std::memory_order_relaxed);
  for (const ring& r : rings_) total += r.dropped.load(std::memory_order_relaxed);
  return total;
}

void trace_recorder::set_watermark(u64 vtime) noexcept {
  u64 cur = watermark_.load(std::memory_order_relaxed);
  while (cur < vtime &&
         !watermark_.compare_exchange_weak(cur, vtime, std::memory_order_relaxed)) {
  }
}

u64 trace_recorder::watermark() const noexcept {
  return watermark_.load(std::memory_order_relaxed);
}

std::vector<trace_event> trace_recorder::snapshot_events() const {
  std::vector<trace_event> out;
  for (const ring& r : rings_) {
    for (u64 i = r.head; i != r.tail; ++i) out.push_back(r.slots[i & (cap_ - 1)]);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const trace_event& a, const trace_event& b) { return a.ts < b.ts; });
  return out;
}

void trace_recorder::clear() noexcept {
  for (ring& r : rings_) r.head = r.tail;
}

}  // namespace bpntt::telemetry
