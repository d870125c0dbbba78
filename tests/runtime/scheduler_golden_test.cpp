// Refactor-equivalence golden test: the legacy submit/flush/wait path must
// be byte-identical across every backend and every scheduling policy, with
// the scheduler living in its own module.  The reference backend under the
// default policy is the oracle; sram and cpu under FIFO (equal-priority
// flush order), priority (with aging) and EDF must all reproduce its
// outputs bit-for-bit — scheduling reorders work, it never changes results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/xoshiro.h"
#include "crypto/rlwe.h"
#include "runtime/context.h"

namespace bpntt::runtime {
namespace {

runtime_options golden_ring(backend_kind kind) {
  return runtime_options()
      .with_ring(32, 193, 9)
      .with_backend(kind)
      .with_array(64, 36)
      .with_subarrays(4)
      .with_threads(2);
}

std::vector<u64> random_poly(u64 n, u64 q, common::xoshiro256ss& rng) {
  std::vector<u64> p(n);
  for (auto& c : p) c = rng.below(q);
  return p;
}

// The legacy single-queue workload: mixed forward/inverse transforms and
// ring products through ctx.submit()/flush()/wait(), plus one R-LWE flow
// per round whose ring products ride the same default stream through the
// crypto client.  Outputs are concatenated in submission order (an R-LWE
// flow contributes u, v and the decrypted round-trip).  The same seed
// builds the same jobs in every run.
std::vector<std::vector<u64>> run_legacy_workload(runtime_options opts) {
  context ctx(std::move(opts));
  common::xoshiro256ss rng(1234);
  std::vector<job_id> ids;
  std::vector<crypto::rlwe_result> flows;
  for (int round = 0; round < 3; ++round) {
    ids.push_back(ctx.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
    ids.push_back(ctx.submit(
        ntt_job{.dir = transform_dir::inverse, .coeffs = random_poly(32, 193, rng)}));
    ids.push_back(
        ctx.submit(polymul_job{random_poly(32, 193, rng), random_poly(32, 193, rng)}));
    const std::vector<crypto::rlwe_request> flow{
        {.message = std::vector<u64>(32, static_cast<u64>(round & 1)),
         .eta = 2,
         .seed = static_cast<u64>(round + 1)}};
    flows.push_back(crypto::rlwe_encrypt_batch(
        crypto::runtime_ring(ctx), flow,
        crypto::stream_batch_mul(ctx, ctx.default_stream()))[0]);
    ctx.flush();
  }
  std::vector<std::vector<u64>> outputs;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    job_result r = ctx.wait(ids[i]);
    for (auto& o : r.outputs) outputs.push_back(std::move(o));
    if (i % 3 == 2) {
      auto& f = flows[i / 3];
      for (auto* o : {&f.u, &f.v, &f.decrypted}) outputs.push_back(std::move(*o));
    }
  }
  return outputs;
}

// FNV-1a over every coefficient, with a separator per polynomial.
u64 digest(const std::vector<std::vector<u64>>& polys) {
  u64 h = 1469598103934665603ULL;
  const auto mix = [&](u64 v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& p : polys) {
    for (const u64 c : p) mix(c);
    mix(0xff);
  }
  return h;
}

TEST(SchedulerGolden, LegacyPathByteIdenticalAcrossBackendsAndPolicies) {
  const auto oracle = run_legacy_workload(golden_ring(backend_kind::reference));
  ASSERT_EQ(oracle.size(), 18u);
  // The oracle is pinned too, by a digest of its 18 polynomials: a change
  // to any transform, product or ciphertext fails here even when every
  // backend changes alike.
  EXPECT_EQ(digest(oracle), 0x897840ec73a3f967ULL);

  struct policy_case {
    const char* name;
    schedule_policy sched;
    unsigned aging;
  };
  const policy_case policies[] = {
      {"fifo", schedule_policy::priority, 0},      // equal priorities = flush order
      {"priority", schedule_policy::priority, 4},  // priority with aging
      {"edf", schedule_policy::edf, 0},
  };

  for (const backend_kind kind :
       {backend_kind::sram, backend_kind::cpu, backend_kind::reference}) {
    for (const policy_case& pc : policies) {
      const auto got =
          run_legacy_workload(golden_ring(kind).with_schedule(pc.sched, pc.aging));
      EXPECT_EQ(got, oracle) << to_string(kind) << " / " << pc.name;
    }
  }
}

TEST(SchedulerGolden, LegacyPathUnchangedByBatchingAndChunkingKnobs) {
  // The new capabilities must be invisible to the legacy path: the default
  // stream never merges with itself, and with no chunk budget set nothing
  // yields.  Turning the master switch on must not perturb a single byte.
  const auto oracle = run_legacy_workload(golden_ring(backend_kind::sram));
  auto opts = golden_ring(backend_kind::sram).with_cross_stream_batching();
  const auto got = run_legacy_workload(std::move(opts));
  EXPECT_EQ(got, oracle);
}

}  // namespace
}  // namespace bpntt::runtime
