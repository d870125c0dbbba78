// RNS engine tests: the big-modulus differential against the wide_uint
// schoolbook oracle across backends and limb counts, per-limb stream
// fan-out and overlap on a multi-channel topology, transform round-trips,
// and the submit_rns validation surface.
#include "rns/rns_engine.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/xoshiro.h"
#include "crypto/rlwe.h"
#include "runtime/context.h"

namespace bpntt::rns {
namespace {

using runtime::backend_kind;
using runtime::runtime_options;

constexpr u64 kOrder = 32;       // 2n = 64 rows fits the small test array
constexpr unsigned kLimbBits = 12;
constexpr unsigned kTileBits = 13;  // 2q < 2^13 for every 12-bit limb

// Small array, 4 channels of one bank each: one channel per limb for up to
// four limbs.
runtime_options small_options(backend_kind kind, u64 q0) {
  return runtime_options()
      .with_ring(kOrder, q0, kTileBits)
      .with_backend(kind)
      .with_array(64, 39)
      .with_topology(4, 1, 4)
      .with_threads(4);
}

std::vector<math::wide_uint> random_big_poly(const rns_basis& basis,
                                             common::xoshiro256ss& rng) {
  std::vector<math::wide_uint> p;
  p.reserve(kOrder);
  for (u64 i = 0; i < kOrder; ++i) {
    math::wide_uint c(basis.wide_bits());
    for (unsigned b = 0; b < basis.modulus_bits(); ++b) c.set_bit(b, rng() & 1ULL);
    p.push_back(c.divmod(basis.modulus()).rem);
  }
  return p;
}

// The acceptance differential: big-modulus negacyclic polymul through the
// engine is bit-identical to the wide_uint schoolbook reference, at 2, 3
// and 4 limbs, on the sram and cpu backends (and the golden oracle).
class RnsEngineDifferential
    : public ::testing::TestWithParam<std::tuple<backend_kind, unsigned>> {};

TEST_P(RnsEngineDifferential, PolymulMatchesWideSchoolbook) {
  const auto [kind, limbs] = GetParam();
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, limbs);
  runtime::context ctx(small_options(kind, basis.prime(0)));
  rns_engine eng(ctx, basis);

  common::xoshiro256ss rng(100 + limbs);
  const auto a = random_big_poly(basis, rng);
  const auto b = random_big_poly(basis, rng);

  const auto c = eng.polymul(a, b);
  const auto expect = schoolbook_negacyclic_wide(a, b, basis.modulus());
  ASSERT_EQ(c.size(), expect.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_TRUE(c[i] == expect[i]) << "backend " << to_string(kind) << ", " << limbs
                                   << " limbs, coefficient " << i;
  }
  EXPECT_EQ(eng.last_fanout().limb_jobs, limbs);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndLimbCounts, RnsEngineDifferential,
    ::testing::Combine(::testing::Values(backend_kind::sram, backend_kind::cpu,
                                         backend_kind::reference),
                       ::testing::Values(2u, 3u, 4u)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_limbs" +
             std::to_string(std::get<1>(info.param));
    });

TEST(RnsEngine, MultiChannelTopologyOverlapsLimbGroups) {
  // Four limbs on a 4-channel device: each limb stream owns one channel,
  // the four limb dispatch groups run concurrently, and the combined
  // makespan lands strictly below the serial per-limb sum (the acceptance
  // criterion for the fan-out actually exercising the scheduler).
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 4);
  runtime::context ctx(small_options(backend_kind::sram, basis.prime(0)));
  rns_engine eng(ctx, basis);

  // Each limb stream must sit on its own bank (= its own channel here).
  std::vector<unsigned> seen;
  for (const u64 q : basis.primes()) {
    const auto set = ctx.rns_stream(q).bank_set();
    ASSERT_EQ(set.size(), 1u);
    for (const unsigned b : seen) EXPECT_NE(b, set[0]);
    seen.push_back(set[0]);
  }

  common::xoshiro256ss rng(7);
  const auto a = random_big_poly(basis, rng);
  const auto b = random_big_poly(basis, rng);
  const auto before = ctx.stats().wall_cycles;
  (void)eng.polymul(a, b);
  const auto makespan = ctx.stats().wall_cycles - before;
  const auto serial = eng.last_fanout().serial_cycles;
  EXPECT_GT(serial, 0u);
  EXPECT_LT(makespan, serial) << "limb groups did not overlap";
  // Four equal-cost limbs on four channels: the makespan should be near
  // one limb's cost, certainly below half the serial sum.
  EXPECT_LT(makespan, serial / 2);
}

TEST(RnsEngine, FlatDeviceFallsBackToSerialLimbGroupsBitIdentically) {
  // One bank: limb streams share it, groups serialize — same outputs.
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 3);
  common::xoshiro256ss rng(15);
  const auto a = random_big_poly(basis, rng);
  const auto b = random_big_poly(basis, rng);

  runtime::context flat(runtime_options()
                            .with_ring(kOrder, basis.prime(0), kTileBits)
                            .with_backend(backend_kind::sram)
                            .with_array(64, 39)
                            .with_banks(1)
                            .with_threads(2));
  rns_engine flat_eng(flat, basis);
  const auto flat_out = flat_eng.polymul(a, b);
  const auto flat_makespan = flat.stats().wall_cycles;
  EXPECT_EQ(flat_makespan, flat_eng.last_fanout().serial_cycles);  // no overlap to claim

  runtime::context wide_ctx(small_options(backend_kind::sram, basis.prime(0)));
  rns_engine wide_eng(wide_ctx, basis);
  const auto wide_out = wide_eng.polymul(a, b);
  ASSERT_EQ(flat_out.size(), wide_out.size());
  for (std::size_t i = 0; i < flat_out.size(); ++i) {
    EXPECT_TRUE(flat_out[i] == wide_out[i]) << "schedule changed the math at " << i;
  }
}

TEST(RnsEngine, ResidueDomainTransformsRoundTrip) {
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 3);
  runtime::context ctx(small_options(backend_kind::sram, basis.prime(0)));
  rns_engine eng(ctx, basis);

  common::xoshiro256ss rng(31);
  const auto a = random_big_poly(basis, rng);
  const rns_poly p = eng.lower(a);
  const rns_poly back = eng.inverse(eng.forward(p));
  ASSERT_EQ(back.limbs(), p.limbs());
  for (std::size_t i = 0; i < p.limbs(); ++i) {
    EXPECT_EQ(back.residues[i], p.residues[i]) << "limb " << i;
  }
  // And the lift of the round trip is the original polynomial.
  const auto lifted = eng.lift(back);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(lifted[i] == a[i]);
}

TEST(RnsEngine, BasisOrderMustMatchContextRing) {
  const auto basis = rns_basis::with_limb_bits(16, kLimbBits, 2);  // n = 16 basis
  runtime::context ctx(small_options(backend_kind::cpu, 3137));   // ring n = 32
  EXPECT_THROW(rns_engine(ctx, basis), std::invalid_argument);
}

// ---- submit_rns / rns_stream surface ---------------------------------------

TEST(RnsSubmission, LimbStreamsAreDedicatedAndReused) {
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 2);
  runtime::context ctx(small_options(backend_kind::sram, basis.prime(0)));
  auto s0 = ctx.rns_stream(basis.prime(0));
  auto s1 = ctx.rns_stream(basis.prime(1));
  EXPECT_NE(s0.id(), s1.id());
  EXPECT_EQ(ctx.rns_stream(basis.prime(0)).id(), s0.id());  // cached, not re-opened
  // Closing a limb stream releases it; the next request opens a fresh one.
  s0.close();
  const auto reopened = ctx.rns_stream(basis.prime(0));
  EXPECT_NE(reopened.id(), s0.id());
  EXPECT_EQ(ctx.rns_stream(basis.prime(0)).id(), reopened.id());
}

TEST(RnsSubmission, ValidatesChainAndResidueShapes) {
  const auto basis = rns_basis::with_limb_bits(kOrder, kLimbBits, 2);
  runtime::context ctx(small_options(backend_kind::sram, basis.prime(0)));
  const std::vector<u64> zeros(kOrder, 0);

  runtime::rns_polymul_job empty;
  EXPECT_THROW((void)ctx.submit_rns(std::move(empty)), std::invalid_argument);

  runtime::rns_polymul_job mismatched;
  mismatched.primes = basis.primes();
  mismatched.a = {zeros};  // one residue poly for two primes
  mismatched.b = {zeros, zeros};
  EXPECT_THROW((void)ctx.submit_rns(std::move(mismatched)), std::invalid_argument);

  runtime::rns_polymul_job duplicated;
  duplicated.primes = {basis.prime(0), basis.prime(0)};
  duplicated.a = {zeros, zeros};
  duplicated.b = {zeros, zeros};
  EXPECT_THROW((void)ctx.submit_rns(std::move(duplicated)), std::invalid_argument);

  runtime::rns_polymul_job non_canonical;
  non_canonical.primes = basis.primes();
  non_canonical.a = {std::vector<u64>(kOrder, basis.prime(0)), zeros};  // == q_0
  non_canonical.b = {zeros, zeros};
  EXPECT_THROW((void)ctx.submit_rns(std::move(non_canonical)), std::invalid_argument);
  EXPECT_EQ(ctx.pending(), 0u) << "a rejected rns job must not half-enqueue";
}

TEST(RnsSubmission, RingOverrideValidationIsPrecise) {
  runtime::context ctx(small_options(backend_kind::sram, 3137));
  // Not a prime.
  try {
    (void)ctx.stream({.ring_q = 3135});
    FAIL() << "composite override accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("odd prime"), std::string::npos);
  }
  // Prime, but no negacyclic transform of size 32 (needs q == 1 mod 64).
  try {
    (void)ctx.stream({.ring_q = 3037});
    FAIL() << "NTT-unfriendly override accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("q == 1 mod 2n"), std::string::npos);
  }
  // Outside the tile envelope (13-bit tiles hold 12-bit moduli).
  try {
    (void)ctx.stream({.ring_q = 12289});
    FAIL() << "oversized override accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("envelope"), std::string::npos);
  }
}

TEST(RnsSubmission, SamePrimeOverrideOnIncompleteRingStillRetargets) {
  // Regression: a ring override naming the primary modulus must still run
  // the full negacyclic transform when the primary ring is configured
  // incomplete — taking the primary-bank shortcut here made sram diverge
  // from the cpu/reference retarget paths.
  common::xoshiro256ss rng(41);
  std::vector<u64> poly(kOrder);
  for (auto& c : poly) c = rng.below(3137);

  const auto run = [&](backend_kind kind) {
    auto opts = small_options(kind, 3137);
    opts.params.incomplete = true;  // 3137 == 1 (mod 32 and mod 64): both modes valid
    runtime::context ctx(opts);
    auto limb = ctx.stream({.ring_q = 3137});
    const auto id = limb.submit(runtime::ntt_job{.coeffs = poly});
    return ctx.wait(id).outputs.front();
  };
  const auto sram_out = run(backend_kind::sram);
  const auto ref_out = run(backend_kind::reference);
  EXPECT_EQ(sram_out, ref_out)
      << "same-prime override must retarget to the full negacyclic transform";
}

TEST(RnsSubmission, RlweJobsRejectedOnLimbStreams) {
  runtime::context ctx(small_options(backend_kind::sram, 3137));
  auto limb = ctx.rns_stream(2113);
  // R-LWE is ring-specific: its products must not run at a limb modulus,
  // so the stream adapter refuses the limb stream before submitting.
  EXPECT_THROW((void)crypto::stream_batch_mul(ctx, limb), std::invalid_argument);
  EXPECT_EQ(ctx.stats().jobs_submitted, 0u);
}

TEST(RnsSubmission, LimbCoefficientsValidateAgainstTheLimbModulus) {
  runtime::context ctx(small_options(backend_kind::sram, 3137));
  auto limb = ctx.rns_stream(2113);
  // 3000 is canonical for the context ring (q=3137) but not for the limb.
  std::vector<u64> too_big(kOrder, 3000);
  EXPECT_THROW((void)limb.submit(runtime::ntt_job{.coeffs = too_big}),
               std::invalid_argument);
  // And a genuine limb-canonical polynomial is accepted and transforms.
  std::vector<u64> fine(kOrder, 2112);
  const auto id = limb.submit(runtime::ntt_job{.coeffs = fine});
  const auto r = ctx.wait(id);
  EXPECT_EQ(r.outputs.front().size(), kOrder);
}

}  // namespace
}  // namespace bpntt::rns
