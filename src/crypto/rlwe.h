// Toy R-LWE public-key encryption (the LPR scheme, §II-A of the paper):
// the end-to-end workload whose polynomial products BP-NTT accelerates.
//
//   keygen:  a <- U(R_q); s, e <- CBD(eta);  pk = (a, b = a*s + e)
//   encrypt: r, e1, e2 <- CBD(eta);
//            u = a*r + e1;  v = b*r + e2 + round(q/2) * m,  m in {0,1}^n
//   decrypt: m' = round_to_bit(v - u*s)
//
// The ring product is pluggable so the same scheme can run on the golden
// CPU NTT or on the in-SRAM engine; rlwe_encrypt_batch below runs many
// flows with their products batched through a runtime stream
// (examples/rlwe_encrypt).
// This is a pedagogical scheme — no CCA transform, no compression — sized
// so decryption succeeds with overwhelming margin at the provided params.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "crypto/params.h"
#include "crypto/sampler.h"
#include "nttmath/ntt.h"
#include "nttmath/poly.h"
#include "runtime/stream.h"

namespace bpntt::runtime {
class context;
}

namespace bpntt::crypto {

using poly = std::vector<std::uint64_t>;
// Negacyclic ring product c = a * b mod (x^n + 1, q).
using polymul_fn = std::function<poly(std::span<const std::uint64_t>,
                                      std::span<const std::uint64_t>)>;

struct public_key {
  poly a;
  poly b;
};
struct secret_key {
  poly s;
};
struct ciphertext {
  poly u;
  poly v;
};

class rlwe_scheme {
 public:
  // `mul` defaults to the golden NTT product when null (the tables backing
  // the default are only built in that case).
  rlwe_scheme(param_set params, unsigned eta = 2, polymul_fn mul = nullptr);

  [[nodiscard]] const param_set& params() const noexcept { return params_; }

  struct keypair {
    public_key pk;
    secret_key sk;
  };
  [[nodiscard]] keypair keygen(common::xoshiro256ss& rng) const;
  [[nodiscard]] ciphertext encrypt(const public_key& pk, std::span<const std::uint64_t> message,
                                   common::xoshiro256ss& rng) const;
  [[nodiscard]] poly decrypt(const secret_key& sk, const ciphertext& ct) const;

 private:
  param_set params_;
  unsigned eta_;
  polymul_fn mul_;
  std::unique_ptr<math::ntt_tables> tables_;  // only for the default mul
};

// ---- Batched client over the runtime ---------------------------------------
//
// LPR encryption of many independent messages with the ring products of
// every flow batched together: all keygen products in one batch_mul call,
// all encryption products in one, all decryption products in one — three
// calls of m, 2m and m pairs for m requests.  R-LWE is a client of ring
// products, not a runtime job kind: the products are plain polymul_jobs,
// so they merge and chunk like any other.  Each request draws from its own
// xoshiro256ss(seed) stream in the serial scheme's order (keygen's a, s, e,
// then encrypt's r, e1, e2), so a batch is bit-identical to running
// rlwe_scheme once per request with that seed.

struct rlwe_request {
  poly message;  // n coefficients, each 0 or 1
  unsigned eta = 2;
  std::uint64_t seed = 1;
};

struct rlwe_result {
  poly u;          // ciphertext
  poly v;
  poly decrypted;  // the decryption round-trip of (u, v)
};

// Maps ring-product pairs to their negacyclic products, in order.
using batch_polymul_fn = std::function<std::vector<poly>(std::vector<core::polymul_pair>)>;

// Throws std::invalid_argument before the first batch_mul call when the
// ring lacks a full negacyclic NTT or a message is not n coefficients in
// {0, 1}; std::logic_error when batch_mul returns the wrong count.
[[nodiscard]] std::vector<rlwe_result> rlwe_encrypt_batch(
    const param_set& params, std::span<const rlwe_request> requests,
    const batch_polymul_fn& batch_mul);

// The context's ring (n, q, tile width) as an R-LWE parameter set.
[[nodiscard]] param_set runtime_ring(const runtime::context& ctx);

// batch_mul over one stream of `ctx`: each call submits every pair as a
// polymul_job on `s`, flushes `s`, then waits on each product (a failed
// product is rethrown once every product has been claimed).  Throws
// std::invalid_argument up front for a ring-overridden (RNS limb) stream
// or a context ring without a full negacyclic NTT; a backend without ring
// products rejects the first submit.  The returned function refers to
// `ctx` and must not outlive it.
[[nodiscard]] batch_polymul_fn stream_batch_mul(runtime::context& ctx, runtime::stream s);

}  // namespace bpntt::crypto
