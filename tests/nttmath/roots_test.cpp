#include "nttmath/roots.h"

#include <gtest/gtest.h>

#include "nttmath/primes.h"

namespace bpntt::math {
namespace {

TEST(Roots, GeneratorHasFullOrder) {
  for (u64 q : {17ULL, 97ULL, 3329ULL, 12289ULL, 8380417ULL}) {
    const u64 g = find_generator(q);
    EXPECT_TRUE(has_order(g, q - 1, q)) << "q=" << q << " g=" << g;
  }
}

TEST(Roots, PrimitiveRootOfUnityProperties) {
  struct Case {
    u64 n, q;
  };
  for (const auto& c : {Case{256, 3329}, Case{512, 12289}, Case{1024, 12289},
                        Case{512, 8380417}, Case{8, 17}}) {
    const u64 w = primitive_root_of_unity(c.n, c.q);
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " q=" << c.q);
    EXPECT_EQ(pow_mod(w, c.n, c.q), 1u);
    EXPECT_NE(pow_mod(w, c.n / 2, c.q), 1u);
    // omega^(n/2) = -1 for even-order roots in a field.
    EXPECT_EQ(pow_mod(w, c.n / 2, c.q), c.q - 1);
  }
}

TEST(Roots, NegacyclicPsiSquaresToOmega) {
  const u64 q = 3329, n = 128;  // 3328 = 2^8 * 13, so 2n = 256 is the max
  const u64 psi = primitive_root_of_unity(2 * n, q);
  const u64 omega = primitive_root_of_unity(n, q);
  // psi^2 is *a* primitive n-th root (may differ from `omega` itself).
  EXPECT_TRUE(has_order(mul_mod(psi, psi, q), n, q));
  EXPECT_TRUE(has_order(omega, n, q));
}

TEST(Roots, RejectsNonDividingOrder) {
  EXPECT_THROW((void)primitive_root_of_unity(512, 3329), std::invalid_argument);  // 512 ∤ 3328
  EXPECT_THROW((void)primitive_root_of_unity(0, 17), std::invalid_argument);
}

TEST(Roots, HasOrderNegativeCases) {
  // 2^4 = 16 ≡ -1 mod 17, so ord(2) = 8, not 4 or 16's divisors checked wrongly.
  EXPECT_TRUE(has_order(2, 8, 17));
  EXPECT_FALSE(has_order(2, 16, 17));
  EXPECT_FALSE(has_order(2, 4, 17));
  EXPECT_FALSE(has_order(1, 2, 17));
}

}  // namespace
}  // namespace bpntt::math
