// Stream API tests: topology-aware bank placement, overlap of independent
// dispatch groups, priority ordering, deadline accounting, capability
// validation, and stream isolation under backend failure.
#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/xoshiro.h"
#include "crypto/rlwe.h"
#include "runtime/context.h"

namespace bpntt::runtime {
namespace {

// Small ring on a small array: 4 lanes per subarray, 3 compute subarrays
// per bank -> 12-lane waves per bank.
runtime_options small_sram() {
  return runtime_options()
      .with_ring(32, 193, 9)
      .with_backend(backend_kind::sram)
      .with_array(64, 36)
      .with_subarrays(4);
}

std::vector<u64> random_poly(u64 n, u64 q, common::xoshiro256ss& rng) {
  std::vector<u64> p(n);
  for (auto& c : p) c = rng.below(q);
  return p;
}

// A scriptable backend for scheduler tests: echoes inputs at a fixed
// modelled cost, records the stream id of every dispatch in order, can
// throw on one stream's dispatches, and can block its first dispatch until
// released (to make priority ordering observable).
class recording_backend final : public backend {
 public:
  struct config {
    backend_caps caps;
    u64 ntt_cost = 1000;  // wall_cycles reported per ntt dispatch
    unsigned throw_on_stream = ~0u;
    bool block_first = false;
  };
  explicit recording_backend(config c) : cfg_(std::move(c)) {
    cfg_.caps.polymul = true;  // every test ring supports products
  }

  [[nodiscard]] std::string_view name() const noexcept override { return "recording"; }
  [[nodiscard]] backend_caps capabilities() const override { return cfg_.caps; }

  batch_result run_ntt(const std::vector<std::vector<u64>>& polys, transform_dir,
                       const dispatch_hints& hints) override {
    maybe_block();
    record(hints);
    if (hints.stream == cfg_.throw_on_stream) {
      throw std::runtime_error("recording backend: stream " +
                               std::to_string(hints.stream) + " detonated");
    }
    batch_result r;
    r.outputs = polys;
    r.waves = polys.empty() ? 0 : 1;
    r.wall_cycles = polys.empty() ? 0 : cfg_.ntt_cost;
    return r;
  }
  batch_result run_polymul(const std::vector<core::polymul_pair>& pairs,
                           const dispatch_hints& hints) override {
    maybe_block();
    record(hints);
    if (hints.stream == cfg_.throw_on_stream) {
      throw std::runtime_error("recording backend: stream " +
                               std::to_string(hints.stream) + " detonated");
    }
    batch_result r;
    for (const auto& pr : pairs) r.outputs.push_back(pr.a);
    r.waves = pairs.empty() ? 0 : 1;
    r.wall_cycles = pairs.empty() ? 0 : cfg_.ntt_cost;
    return r;
  }

  void release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }
  [[nodiscard]] std::vector<unsigned> dispatch_order() const {
    std::lock_guard<std::mutex> lk(mu_);
    return order_;
  }
  [[nodiscard]] std::vector<dispatch_hints> seen_hints() const {
    std::lock_guard<std::mutex> lk(mu_);
    return hints_;
  }

 private:
  void maybe_block() {
    std::unique_lock<std::mutex> lk(mu_);
    if (!cfg_.block_first || blocked_once_) return;
    blocked_once_ = true;
    cv_.wait(lk, [&] { return released_; });
  }
  void record(const dispatch_hints& hints) {
    std::lock_guard<std::mutex> lk(mu_);
    order_.push_back(hints.stream);
    hints_.push_back(hints);
  }

  config cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_once_ = false;
  bool released_ = false;
  std::vector<unsigned> order_;
  std::vector<dispatch_hints> hints_;
};

// ---- capabilities ----------------------------------------------------------

TEST(RuntimeStreams, SramCapabilitiesDescribeTheTopology) {
  context ctx(small_sram().with_topology(2, 2, 4));
  const auto& caps = ctx.capabilities();
  EXPECT_EQ(caps.banks(), 4u);
  EXPECT_EQ(caps.channels, 2u);
  ASSERT_EQ(caps.bank_lanes.size(), 4u);
  for (const auto lanes : caps.bank_lanes) EXPECT_EQ(lanes, 12u);
  EXPECT_EQ(caps.wave_width, 48u);
  EXPECT_EQ(ctx.wave_width(), 48u);
  EXPECT_TRUE(caps.polymul);
  EXPECT_TRUE(caps.overlapping_streams());
  EXPECT_EQ(caps.max_poly_order, 32u);
  EXPECT_EQ(caps.max_modulus_bits, 8u);  // k = 9, carry-save headroom 2q < 2^k

  context ref(small_sram().with_backend(backend_kind::reference));
  EXPECT_FALSE(ref.capabilities().overlapping_streams());
  EXPECT_EQ(ref.capabilities().banks(), 0u);
}

TEST(RuntimeStreams, ContextRejectsRingsOutsideTheBackendEnvelope) {
  // Ring order beyond the advertised envelope.
  recording_backend::config narrow;
  narrow.caps.max_poly_order = 16;  // ring has n = 32
  try {
    context ctx(small_sram(), std::make_unique<recording_backend>(narrow));
    FAIL() << "oversized ring must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max polynomial order"), std::string::npos);
  }
  // Modulus wider than the backend can reduce (193 needs 8 bits).
  recording_backend::config thin;
  thin.caps.max_modulus_bits = 7;
  try {
    context ctx(small_sram(), std::make_unique<recording_backend>(thin));
    FAIL() << "oversized modulus must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bits"), std::string::npos);
  }
}

TEST(RuntimeStreams, SubmitValidatesAgainstCapabilityBits) {
  // A backend whose capabilities exclude ring products: polymul
  // submissions are rejected up front, and so is an R-LWE flow — its first
  // ring product fails to submit, so nothing is enqueued.
  class no_polymul final : public backend {
    [[nodiscard]] std::string_view name() const noexcept override { return "no-polymul"; }
    [[nodiscard]] backend_caps capabilities() const override { return {}; }
    batch_result run_ntt(const std::vector<std::vector<u64>>& polys, transform_dir,
                         const dispatch_hints&) override {
      batch_result r;
      r.outputs = polys;
      return r;
    }
    batch_result run_polymul(const std::vector<core::polymul_pair>&,
                             const dispatch_hints&) override {
      throw std::logic_error("unreachable");
    }
  };
  context ctx(small_sram(), std::make_unique<no_polymul>());
  common::xoshiro256ss rng(1);
  EXPECT_NO_THROW((void)ctx.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
  EXPECT_THROW((void)ctx.submit(polymul_job{.a = random_poly(32, 193, rng),
                                            .b = random_poly(32, 193, rng)}),
               std::invalid_argument);
  const std::vector<crypto::rlwe_request> flow{{.message = std::vector<u64>(32, 0)}};
  EXPECT_THROW((void)crypto::rlwe_encrypt_batch(
                   crypto::runtime_ring(ctx), flow,
                   crypto::stream_batch_mul(ctx, ctx.default_stream())),
               std::invalid_argument);
  EXPECT_EQ(ctx.pending(), 1u) << "only the transform is queued";
}

// ---- placement -------------------------------------------------------------

TEST(RuntimeStreams, FlatTopologyPlacesStreamsOnBanksRoundRobin) {
  context ctx(small_sram().with_banks(3));
  auto s1 = ctx.stream();
  auto s2 = ctx.stream();
  auto s3 = ctx.stream();
  auto s4 = ctx.stream();
  EXPECT_EQ(s1.bank_set(), std::vector<unsigned>{0u});
  EXPECT_EQ(s2.bank_set(), std::vector<unsigned>{1u});
  EXPECT_EQ(s3.bank_set(), std::vector<unsigned>{2u});
  EXPECT_EQ(s4.bank_set(), std::vector<unsigned>{0u});  // wraps; shares with s1
}

TEST(RuntimeStreams, MultiChannelTopologyHandsEachStreamOneChannel) {
  context ctx(small_sram().with_topology(2, 2, 4));
  auto s1 = ctx.stream();
  auto s2 = ctx.stream();
  auto s3 = ctx.stream();
  EXPECT_EQ(s1.bank_set(), (std::vector<unsigned>{0u, 1u}));
  EXPECT_EQ(s2.bank_set(), (std::vector<unsigned>{2u, 3u}));
  EXPECT_EQ(s3.bank_set(), (std::vector<unsigned>{0u, 1u}));  // wraps to channel 0
}

TEST(RuntimeStreams, ExplicitBankSetsAreValidatedAndNormalized) {
  context ctx(small_sram().with_banks(4));
  auto pinned = ctx.stream({.bank_set = {3, 1, 3}});
  EXPECT_EQ(pinned.bank_set(), (std::vector<unsigned>{1u, 3u}));  // sorted, deduped
  EXPECT_THROW((void)ctx.stream({.bank_set = {4}}), std::invalid_argument);
}

// ---- overlap and ordering --------------------------------------------------

TEST(RuntimeStreams, StreamsExecuteInOrderAndStampResults) {
  context ctx(small_sram().with_banks(2));
  const auto& p = ctx.options().params;
  common::xoshiro256ss rng(2);
  auto s = ctx.stream({.priority = 3});
  std::vector<job_id> ids;
  std::vector<std::vector<u64>> inputs;
  for (unsigned i = 0; i < 5; ++i) {
    inputs.push_back(random_poly(p.n, p.q, rng));
    ids.push_back(s.submit(ntt_job{.coeffs = inputs.back()}));
  }
  EXPECT_EQ(s.pending(), 5u);
  EXPECT_EQ(ctx.pending(), 5u);
  s.flush();
  EXPECT_EQ(s.pending(), 0u);
  for (const auto id : ids) {
    const auto r = ctx.wait(id);
    EXPECT_EQ(r.status, job_status::ok);
    EXPECT_EQ(r.stream, s.id());
    EXPECT_FALSE(r.deadline_missed);
    EXPECT_GT(r.finish_cycles, 0u);
  }
  // Legacy submissions ride the default stream.
  const auto legacy = ctx.wait(ctx.submit(ntt_job{.coeffs = inputs.front()}));
  EXPECT_EQ(legacy.stream, 0u);
}

TEST(RuntimeStreams, PriorityOrdersContendedDispatchGroups) {
  // One pseudo-resource (no bank map): every group serializes, so dispatch
  // order is exactly the scheduler's pick order.  The first group blocks
  // inside the backend while low- and high-priority groups pile up; on
  // release the high-priority group must dispatch before the low one even
  // though it flushed later.
  recording_backend::config cfg;
  cfg.block_first = true;
  auto owned = std::make_unique<recording_backend>(cfg);
  auto* rec = owned.get();
  context ctx(small_sram().with_threads(2), std::move(owned));
  common::xoshiro256ss rng(3);

  (void)ctx.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  ctx.flush();  // group 0: occupies the resource, blocked in the backend

  auto low = ctx.stream({.priority = 1});
  auto high = ctx.stream({.priority = 9});
  (void)low.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  low.flush();
  (void)high.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  high.flush();

  rec->release();
  ctx.sync();
  const auto order = rec->dispatch_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0u);          // the blocker
  EXPECT_EQ(order[1], high.id());   // priority 9 beats priority 1...
  EXPECT_EQ(order[2], low.id());    // ...despite flushing later
  EXPECT_EQ(ctx.stats().groups, 3u);
}

TEST(RuntimeStreams, PriorityHoldsAcrossStreamsFlushedTogether) {
  // One ctx.sync() flushes every stream: all groups must enter the ready
  // queue before any scheduling decision, so the high-priority stream
  // dispatches first even though the bulk stream has the lower id and is
  // visited first by the flush loop.
  recording_backend::config cfg;
  auto owned = std::make_unique<recording_backend>(cfg);
  auto* rec = owned.get();
  context ctx(small_sram().with_threads(1), std::move(owned));
  common::xoshiro256ss rng(8);

  auto bulk = ctx.stream({.priority = 0});   // id 1: flushed first
  auto fast = ctx.stream({.priority = 10});  // id 2
  (void)bulk.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  (void)fast.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  ctx.sync();

  const auto order = rec->dispatch_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], fast.id());
  EXPECT_EQ(order[1], bulk.id());
}

TEST(RuntimeStreams, BackendFailureInOneStreamLeavesSiblingsIntact) {
  common::xoshiro256ss rng(4);
  // Stream ids are issued in creation order starting at 1, so the failure
  // trigger can be armed before the stream exists.
  recording_backend::config armed;
  armed.throw_on_stream = 1;  // first user stream created below
  context ctx2(small_sram().with_threads(2), std::make_unique<recording_backend>(armed));

  auto bad = ctx2.stream();   // id 1: detonates
  auto good = ctx2.stream();  // id 2: must be untouched
  ASSERT_EQ(bad.id(), 1u);

  std::vector<job_id> bad_ids, good_ids;
  std::vector<std::vector<u64>> good_inputs;
  for (unsigned i = 0; i < 3; ++i) {
    bad_ids.push_back(bad.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
    good_inputs.push_back(random_poly(32, 193, rng));
    good_ids.push_back(good.submit(ntt_job{.coeffs = good_inputs.back()}));
  }
  bad.flush();
  good.flush();
  ctx2.sync();

  // The sibling stream's jobs completed, in order, with echoed outputs.
  for (std::size_t i = 0; i < good_ids.size(); ++i) {
    const auto r = ctx2.wait(good_ids[i]);
    EXPECT_EQ(r.status, job_status::ok);
    EXPECT_EQ(r.stream, good.id());
    EXPECT_EQ(r.outputs[0], good_inputs[i]) << "job " << i;
  }
  // The doomed stream's jobs carry the backend's message.
  for (const auto id : bad_ids) {
    const auto r = ctx2.try_wait(id);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, job_status::failed);
    EXPECT_NE(r->error.find("detonated"), std::string::npos);
  }
  const auto s = ctx2.stats();
  EXPECT_EQ(s.jobs_failed, 3u);
  EXPECT_EQ(s.jobs_completed, 3u);
  EXPECT_EQ(s.jobs_in_flight, 0u);
}

TEST(RuntimeStreams, CloseReleasesTheSlotAndUnboundHandlesThrow) {
  context ctx(small_sram().with_banks(2));
  common::xoshiro256ss rng(7);

  // close() flushes pending work; already-submitted ids stay waitable.
  auto s = ctx.stream();
  const auto id = s.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  s.close();
  EXPECT_EQ(ctx.wait(id).status, job_status::ok);
  EXPECT_THROW((void)s.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}),
               std::logic_error);
  EXPECT_THROW(s.close(), std::logic_error);       // already closed
  EXPECT_THROW((void)s.pending(), std::logic_error);   // probes throw too,
  EXPECT_THROW((void)s.bank_set(), std::logic_error);  // not silent 0 / {}

  // The default stream is permanent, and an unbound handle diagnoses
  // itself instead of dereferencing null.
  stream dangling;
  EXPECT_THROW(dangling.flush(), std::logic_error);
  EXPECT_THROW((void)dangling.pending(), std::logic_error);
}

TEST(RuntimeStreams, CloseThenReopenReusesTheSlot) {
  // A service opening one stream per request closes them; a later stream
  // must be fully usable and land on the same bank the closed one held
  // (round-robin placement keeps cycling, so slot reuse is observable as
  // placement reuse).
  context ctx(small_sram().with_banks(2));
  common::xoshiro256ss rng(21);

  auto first = ctx.stream();
  const auto first_banks = first.bank_set();
  const auto first_id = first.id();
  first.close();

  // Ids are not recycled (results stay unambiguous), but the bank slot is.
  auto a = ctx.stream();
  auto b = ctx.stream();
  EXPECT_NE(a.id(), first_id);
  // Round-robin over 2 banks: one of the two new streams re-lands on the
  // closed stream's bank.
  EXPECT_TRUE(a.bank_set() == first_banks || b.bank_set() == first_banks);

  // And the reopened slot executes work end to end.
  const auto id = a.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  a.flush();
  EXPECT_EQ(ctx.wait(id).status, job_status::ok);
}

TEST(RuntimeStreams, DoubleFlushOfAnEmptyStreamIsANoop) {
  // flush() on an empty stream must not create a dispatch group (an empty
  // group would burn a scheduler round and skew the groups counter).
  context ctx(small_sram().with_banks(2));
  common::xoshiro256ss rng(22);

  auto s = ctx.stream();
  const auto before = ctx.stats().groups;
  s.flush();
  s.flush();
  ctx.flush();  // flushing every stream skips empty queues too
  EXPECT_EQ(ctx.stats().groups, before);

  // A real group still forms afterwards, exactly one per non-empty flush.
  const auto id = s.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  s.flush();
  s.flush();  // second flush: queue already drained, again a no-op
  ctx.sync();
  EXPECT_EQ(ctx.stats().groups, before + 1);
  EXPECT_EQ(ctx.wait(id).status, job_status::ok);
}

// ---- deadlines -------------------------------------------------------------

TEST(RuntimeStreams, DeadlineMissesAreAccountedNotPreempted) {
  recording_backend::config cfg;
  cfg.ntt_cost = 1000;
  auto owned = std::make_unique<recording_backend>(cfg);
  context ctx(small_sram().with_threads(1), std::move(owned));
  common::xoshiro256ss rng(5);

  auto tight = ctx.stream({.deadline_cycles = 500});    // 1000-cycle batch: missed
  auto loose = ctx.stream({.deadline_cycles = 5000});   // met
  auto none = ctx.stream();                             // no deadline
  const auto t = tight.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  const auto l = loose.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  const auto n = none.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  tight.flush();
  loose.flush();
  none.flush();
  ctx.sync();

  const auto rt = ctx.wait(t);
  EXPECT_EQ(rt.status, job_status::ok);  // the job still completed
  EXPECT_TRUE(rt.deadline_missed);
  const auto rl = ctx.wait(l);
  EXPECT_FALSE(rl.deadline_missed);
  const auto rn = ctx.wait(n);
  EXPECT_FALSE(rn.deadline_missed);
  EXPECT_EQ(ctx.stats().deadline_misses, 1u);
}

TEST(RuntimeStreams, FinishingExactlyAtTheDeadlineIsAMeetNotAMiss) {
  // Regression for the deadline boundary: a group whose completion lands
  // *exactly* on deadline_cycles has met its budget.  The stub reports a
  // fixed 1000-cycle batch, so the boundary is exact by construction — and
  // the second stream flushes after the first completed, pinning the
  // "measured from the stream's flush" reference.
  recording_backend::config cfg;
  cfg.ntt_cost = 1000;
  auto owned = std::make_unique<recording_backend>(cfg);
  context ctx(small_sram().with_threads(1), std::move(owned));
  common::xoshiro256ss rng(31);

  auto exact = ctx.stream({.deadline_cycles = 1000});
  const auto met = exact.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  exact.flush();
  ctx.sync();
  const auto r_met = ctx.wait(met);
  EXPECT_FALSE(r_met.deadline_missed) << "end - ref == deadline must be a meet";
  EXPECT_EQ(ctx.stats().deadline_misses, 0u);

  // One cycle less of budget on a later flush (non-zero reference vtime):
  // the identical batch now misses.
  auto tight = ctx.stream({.deadline_cycles = 999});
  const auto missed = tight.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  tight.flush();
  ctx.sync();
  const auto r_missed = ctx.wait(missed);
  EXPECT_TRUE(r_missed.deadline_missed);
  EXPECT_EQ(ctx.stats().deadline_misses, 1u);
}

// ---- limb-stream lifecycle -------------------------------------------------

TEST(RuntimeStreams, RnsStreamReopensFreshSlotWhileFlushIsStillInFlight) {
  // Close the dedicated limb stream while its flushed group is still
  // blocked inside the backend, then ask for the limb stream again: the
  // context must hand out a fresh, fully-usable slot — never the stale
  // closed handle — and both the in-flight job and work on the reopened
  // slot must complete.
  recording_backend::config cfg;
  cfg.block_first = true;
  auto owned = std::make_unique<recording_backend>(cfg);
  auto* be = owned.get();
  context ctx(small_sram().with_threads(2), std::move(owned));
  common::xoshiro256ss rng(33);

  constexpr u64 kLimb = 257;  // 257 == 1 (mod 64): negacyclic at n = 32
  auto s = ctx.rns_stream(kLimb);
  const auto stale_id = s.id();
  const auto inflight =
      s.submit(ntt_job{.coeffs = random_poly(32, kLimb, rng)});
  s.flush();
  // The group is dispatched (and the backend is now blocked inside it).
  EXPECT_EQ(ctx.stats().jobs_in_flight, 1u);

  s.close();  // close during the in-flight flush; must not deadlock

  auto reopened = ctx.rns_stream(kLimb);
  EXPECT_NE(reopened.id(), stale_id) << "a closed limb stream must not be resurrected";
  EXPECT_EQ(ctx.rns_stream(kLimb).id(), reopened.id()) << "the fresh slot is the new home";
  const auto later = reopened.submit(ntt_job{.coeffs = random_poly(32, kLimb, rng)});
  reopened.flush();

  be->release();
  const auto r1 = ctx.wait(inflight);
  EXPECT_EQ(r1.status, job_status::ok);
  EXPECT_EQ(r1.stream, stale_id) << "the in-flight job still reports its original stream";
  const auto r2 = ctx.wait(later);
  EXPECT_EQ(r2.status, job_status::ok);
  EXPECT_EQ(r2.stream, reopened.id());
}

// ---- virtual-timeline accounting -------------------------------------------

TEST(RuntimeStreams, MakespanAccountingOverlapsDisjointBanksOnly) {
  // Two streams on a stub advertising a 2-bank map: their fixed-cost
  // groups land on banks {0} and {1}, so the makespan is one group's cost.
  // A third group on the default stream (all banks) then stacks on top.
  recording_backend::config cfg;
  cfg.ntt_cost = 1000;
  cfg.caps.bank_lanes = {4, 4};
  auto owned = std::make_unique<recording_backend>(cfg);
  context ctx(small_sram().with_threads(2), std::move(owned));
  common::xoshiro256ss rng(6);

  auto a = ctx.stream();
  auto b = ctx.stream();
  (void)a.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  (void)b.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  a.flush();
  b.flush();
  ctx.sync();
  EXPECT_EQ(ctx.stats().wall_cycles, 1000u);  // overlapped, not 2000

  (void)ctx.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  ctx.sync();
  EXPECT_EQ(ctx.stats().wall_cycles, 2000u);  // default stream needs both banks
}

}  // namespace
}  // namespace bpntt::runtime
