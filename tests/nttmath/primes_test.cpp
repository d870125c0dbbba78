#include "nttmath/primes.h"

#include <gtest/gtest.h>

namespace bpntt::math {
namespace {

TEST(Primes, SmallValues) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(97));
  EXPECT_FALSE(is_prime(91));  // 7*13
}

TEST(Primes, KnownCryptoPrimes) {
  EXPECT_TRUE(is_prime(3329));      // Kyber
  EXPECT_TRUE(is_prime(12289));     // Falcon/NewHope
  EXPECT_TRUE(is_prime(8380417));   // Dilithium
  EXPECT_TRUE(is_prime((1ULL << 61) - 1));  // Mersenne
  EXPECT_FALSE(is_prime(3329ULL * 12289));
}

TEST(Primes, StrongPseudoprimesRejected) {
  // Carmichael numbers and classic base-2 pseudoprimes.
  for (u64 n : {561ULL, 1105ULL, 1729ULL, 2047ULL, 3215031751ULL}) {
    EXPECT_FALSE(is_prime(n)) << n;
  }
}

TEST(Primes, DistinctFactors) {
  EXPECT_EQ(distinct_prime_factors(1), std::vector<u64>{});
  EXPECT_EQ(distinct_prime_factors(12), (std::vector<u64>{2, 3}));
  EXPECT_EQ(distinct_prime_factors(3328), (std::vector<u64>{2, 13}));  // q-1 of Kyber
  EXPECT_EQ(distinct_prime_factors(8380416), (std::vector<u64>{2, 3, 11, 31}));
  const u64 semi = 1000003ULL * 999983ULL;
  EXPECT_EQ(distinct_prime_factors(semi), (std::vector<u64>{999983, 1000003}));
}

TEST(Primes, FindPrimeCongruent) {
  // Smallest prime ≡ 1 mod 512 above 2^13 is 12289? 12288 = 24*512 ✓ —
  // verify the search honors both bounds and the congruence.
  const u64 q = find_prime_congruent(8192, 16384, 512);
  ASSERT_NE(q, 0u);
  EXPECT_TRUE(is_prime(q));
  EXPECT_EQ((q - 1) % 512, 0u);
  EXPECT_GE(q, 8192u);
}

TEST(Primes, NttFriendlyPrimeProperties) {
  for (unsigned bits : {14u, 16u, 21u, 23u, 29u}) {
    for (u64 n : {256ULL, 1024ULL}) {
      SCOPED_TRACE(testing::Message() << "bits=" << bits << " n=" << n);
      u64 q = 0;
      try {
        q = ntt_friendly_prime(bits, n, true);
      } catch (const std::runtime_error&) {
        continue;  // no such prime in that window — acceptable for tight widths
      }
      EXPECT_TRUE(is_prime(q));
      EXPECT_EQ((q - 1) % (2 * n), 0u);
      EXPECT_GE(q, 1ULL << (bits - 1));
      EXPECT_LT(q, 1ULL << bits);
    }
  }
}

TEST(Primes, NttFriendlyPrimeRejectsBadWidth) {
  EXPECT_THROW((void)ntt_friendly_prime(1, 256), std::runtime_error);
  EXPECT_THROW((void)ntt_friendly_prime(63, 256), std::runtime_error);
}

TEST(Primes, FirstKNttPrimesBuildsAscendingDistinctChains) {
  for (const unsigned k : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    const auto chain = first_k_ntt_primes(20, 256, k);
    ASSERT_EQ(chain.size(), k);
    for (std::size_t i = 0; i < chain.size(); ++i) {
      EXPECT_TRUE(is_prime(chain[i])) << "limb " << i;
      EXPECT_EQ((chain[i] - 1) % 512, 0u) << "limb " << i;
      EXPECT_GE(chain[i], 1ULL << 19);
      EXPECT_LT(chain[i], 1ULL << 20);
      if (i > 0) EXPECT_GT(chain[i], chain[i - 1]) << "not ascending at limb " << i;
    }
  }
  // The first limb is exactly the single-prime search's answer.
  EXPECT_EQ(first_k_ntt_primes(20, 256, 1).front(), ntt_friendly_prime(20, 256));
}

TEST(Primes, FirstKNttPrimesReportsShortfallPrecisely) {
  // 12-bit primes with q == 1 (mod 2048): the window [2048, 4096) holds
  // none, and the error says so with the search parameters.
  try {
    (void)first_k_ntt_primes(12, 1024, 2);
    FAIL() << "impossible chain accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("only 0 of 2"), std::string::npos) << what;
    EXPECT_NE(what.find("12 bits"), std::string::npos) << what;
    EXPECT_NE(what.find("mod 2048"), std::string::npos) << what;
  }
  // A window with some but not enough primes names the count it found.
  try {
    (void)first_k_ntt_primes(14, 2048, 16);
    FAIL() << "oversized chain accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(" of 16"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)first_k_ntt_primes(1, 256, 1), std::runtime_error);
  EXPECT_THROW((void)first_k_ntt_primes(63, 256, 1), std::runtime_error);
  EXPECT_THROW((void)first_k_ntt_primes(20, 256, 0), std::runtime_error);
}

}  // namespace
}  // namespace bpntt::math
