#include "nttmath/montgomery.h"

#include <cassert>
#include <stdexcept>

namespace bpntt::math {

montgomery64::montgomery64(u64 q) : q_(q) {
  if (q == 0 || (q & 1ULL) == 0) throw std::invalid_argument("montgomery64: q must be odd");
  if (q >= (1ULL << 62)) throw std::invalid_argument("montgomery64: q must be < 2^62");
  // Newton iteration for q^-1 mod 2^64: each step doubles correct bits.
  u64 inv = q;  // correct to 3 bits for odd q
  for (int i = 0; i < 5; ++i) inv *= 2 - q * inv;
  q_inv_neg_ = ~inv + 1;
  // R^2 = 2^128 mod q as the square of R mod q = ((2^64 - 1) mod q + 1).
  const u64 r_mod_q = (~0ULL % q + 1) % q;
  r2_ = mul_mod(r_mod_q, r_mod_q, q);
}

u64 montgomery64::redc(u128 t) const noexcept {
  const u64 m = static_cast<u64>(t) * q_inv_neg_;
  const u128 sum = t + static_cast<u128>(m) * q_;
  u64 r = static_cast<u64>(sum >> 64);
  if (r >= q_) r -= q_;
  return r;
}

u64 montgomery64::to_mont(u64 a) const noexcept {
  return redc(static_cast<u128>(a) * r2_);
}

u64 montgomery64::from_mont(u64 a) const noexcept { return redc(a); }

u64 montgomery64::mul(u64 a, u64 b) const noexcept {
  return redc(static_cast<u128>(a) * b);
}

u64 interleaved_montgomery(u64 a, u64 b, u64 q, unsigned k) noexcept {
  assert((q & 1ULL) != 0 && k >= 1 && k <= 63 && q < (1ULL << k));
  assert(a < q && b < q);
  // Invariant: p < 2q throughout (see docs/DESIGN.md §3 and the property tests).
  u64 p = 0;
  for (unsigned i = 0; i < k; ++i) {
    if ((a >> i) & 1ULL) p += b;
    if (p & 1ULL) p += q;
    p >>= 1;
  }
  if (p >= q) p -= q;
  return p;
}

u64 mont_r(u64 q, unsigned k) noexcept {
  assert(k <= 63);
  return (1ULL << k) % q;
}

u64 mont_r2(u64 q, unsigned k) noexcept {
  const u64 r = mont_r(q, k);
  return mul_mod(r, r, q);
}

}  // namespace bpntt::math
