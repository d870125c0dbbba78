#include "crypto/rlwe.h"

#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "nttmath/modarith.h"
#include "runtime/context.h"

namespace bpntt::crypto {

namespace {

// The sampling and recombination halves of the scheme with the ring
// products factored out; keygen / encrypt / decrypt and the batched client
// are compositions of these, so both paths draw and combine identically.

// Everything keygen draws, in draw order: a <- U, s <- CBD, e <- CBD.
struct rlwe_keygen_randomness {
  poly a;
  poly s;
  poly e;
};
// Everything encrypt draws, in draw order: r, e1, e2 <- CBD.
struct rlwe_encrypt_randomness {
  poly r;
  poly e1;
  poly e2;
};

// A message is n coefficients in {0, 1}.
void require_message(const param_set& p, std::span<const std::uint64_t> message) {
  if (message.size() != p.n) {
    throw std::invalid_argument("rlwe: message must have exactly n = " + std::to_string(p.n) +
                                " coefficients");
  }
  for (const std::uint64_t bit : message) {
    if (bit > 1) throw std::invalid_argument("rlwe: message coefficients must be 0 or 1");
  }
}

rlwe_keygen_randomness rlwe_sample_keygen(const param_set& p, unsigned eta,
                                          common::xoshiro256ss& rng) {
  rlwe_keygen_randomness rnd;
  rnd.a = sample_uniform(p.n, p.q, rng);
  rnd.s = sample_cbd(p.n, p.q, eta, rng);
  rnd.e = sample_cbd(p.n, p.q, eta, rng);
  return rnd;
}

rlwe_encrypt_randomness rlwe_sample_encrypt(const param_set& p, unsigned eta,
                                            common::xoshiro256ss& rng) {
  rlwe_encrypt_randomness rnd;
  rnd.r = sample_cbd(p.n, p.q, eta, rng);
  rnd.e1 = sample_cbd(p.n, p.q, eta, rng);
  rnd.e2 = sample_cbd(p.n, p.q, eta, rng);
  return rnd;
}

rlwe_scheme::keypair rlwe_finish_keygen(const param_set& p, rlwe_keygen_randomness rnd,
                                        poly as) {
  rlwe_scheme::keypair kp;
  kp.pk.b = math::poly_add(as, rnd.e, p.q);
  kp.pk.a = std::move(rnd.a);
  kp.sk.s = std::move(rnd.s);
  return kp;
}

ciphertext rlwe_finish_encrypt(const param_set& p, const rlwe_encrypt_randomness& rnd,
                               std::span<const std::uint64_t> message, poly ar, poly br) {
  require_message(p, message);
  const std::uint64_t q = p.q;
  ciphertext ct;
  ct.u = math::poly_add(ar, rnd.e1, q);
  poly scaled(p.n);
  const std::uint64_t half = (q + 1) / 2;  // round(q/2)
  for (std::size_t i = 0; i < p.n; ++i) {
    scaled[i] = message[i] != 0 ? half : 0;
  }
  ct.v = math::poly_add(math::poly_add(br, rnd.e2, q), scaled, q);
  return ct;
}

poly rlwe_decrypt_from_product(const param_set& p, const ciphertext& ct, const poly& us) {
  const std::uint64_t q = p.q;
  poly m(p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    const std::uint64_t d = math::sub_mod(ct.v[i], us[i], q);
    // Decision regions around 0 and q/2.
    const std::uint64_t quarter = q / 4;
    m[i] = (d > quarter && d < q - quarter) ? 1 : 0;
  }
  return m;
}

}  // namespace

rlwe_scheme::rlwe_scheme(param_set params, unsigned eta, polymul_fn mul)
    : params_(std::move(params)), eta_(eta), mul_(std::move(mul)) {
  if (!params_.supports_full_ntt()) {
    throw std::invalid_argument("rlwe_scheme: parameter set lacks a full negacyclic NTT");
  }
  if (!mul_) {
    tables_ = std::make_unique<math::ntt_tables>(params_.n, params_.q, /*negacyclic=*/true);
    mul_ = [this](std::span<const std::uint64_t> a, std::span<const std::uint64_t> b) {
      return math::polymul_ntt(a, b, *tables_);
    };
  }
}

rlwe_scheme::keypair rlwe_scheme::keygen(common::xoshiro256ss& rng) const {
  auto rnd = rlwe_sample_keygen(params_, eta_, rng);
  poly as = mul_(rnd.a, rnd.s);
  return rlwe_finish_keygen(params_, std::move(rnd), std::move(as));
}

ciphertext rlwe_scheme::encrypt(const public_key& pk, std::span<const std::uint64_t> message,
                                common::xoshiro256ss& rng) const {
  const auto rnd = rlwe_sample_encrypt(params_, eta_, rng);
  poly ar = mul_(pk.a, rnd.r);
  poly br = mul_(pk.b, rnd.r);
  return rlwe_finish_encrypt(params_, rnd, message, std::move(ar), std::move(br));
}

poly rlwe_scheme::decrypt(const secret_key& sk, const ciphertext& ct) const {
  return rlwe_decrypt_from_product(params_, ct, mul_(ct.u, sk.s));
}

std::vector<rlwe_result> rlwe_encrypt_batch(const param_set& params,
                                            std::span<const rlwe_request> requests,
                                            const batch_polymul_fn& batch_mul) {
  if (!params.supports_full_ntt()) {
    throw std::invalid_argument("rlwe: parameter set lacks a full negacyclic NTT");
  }
  for (const auto& rq : requests) require_message(params, rq.message);
  const std::size_t m = requests.size();
  if (m == 0) return {};

  std::vector<rlwe_keygen_randomness> kg(m);
  std::vector<rlwe_encrypt_randomness> en(m);
  for (std::size_t i = 0; i < m; ++i) {
    common::xoshiro256ss rng(requests[i].seed);
    kg[i] = rlwe_sample_keygen(params, requests[i].eta, rng);
    en[i] = rlwe_sample_encrypt(params, requests[i].eta, rng);
  }
  const auto products = [&](std::vector<core::polymul_pair> pairs) {
    const std::size_t want = pairs.size();
    auto out = batch_mul(std::move(pairs));
    if (out.size() != want) {
      throw std::logic_error("rlwe: batch_mul returned " + std::to_string(out.size()) +
                             " products for " + std::to_string(want) + " pairs");
    }
    return out;
  };

  // Stage 1 — keygen products a*s.
  std::vector<core::polymul_pair> pairs(m);
  for (std::size_t i = 0; i < m; ++i) pairs[i] = {kg[i].a, kg[i].s};
  auto as = products(std::move(pairs));
  std::vector<rlwe_scheme::keypair> keys(m);
  for (std::size_t i = 0; i < m; ++i) {
    keys[i] = rlwe_finish_keygen(params, std::move(kg[i]), std::move(as[i]));
  }

  // Stage 2 — both encryption products a*r and b*r, pairwise.
  pairs.assign(2 * m, core::polymul_pair{});
  for (std::size_t i = 0; i < m; ++i) {
    pairs[2 * i] = {keys[i].pk.a, en[i].r};
    pairs[2 * i + 1] = {keys[i].pk.b, en[i].r};
  }
  auto prods = products(std::move(pairs));
  std::vector<ciphertext> cts(m);
  for (std::size_t i = 0; i < m; ++i) {
    cts[i] = rlwe_finish_encrypt(params, en[i], requests[i].message, std::move(prods[2 * i]),
                                 std::move(prods[2 * i + 1]));
  }

  // Stage 3 — decryption round-trip products u*s.
  pairs.assign(m, core::polymul_pair{});
  for (std::size_t i = 0; i < m; ++i) pairs[i] = {cts[i].u, keys[i].sk.s};
  const auto us = products(std::move(pairs));
  std::vector<rlwe_result> out(m);
  for (std::size_t i = 0; i < m; ++i) {
    out[i].decrypted = rlwe_decrypt_from_product(params, cts[i], us[i]);
    out[i].u = std::move(cts[i].u);
    out[i].v = std::move(cts[i].v);
  }
  return out;
}

param_set runtime_ring(const runtime::context& ctx) {
  const auto& p = ctx.options().params;
  param_set ring;
  ring.name = "runtime";
  ring.n = p.n;
  ring.q = p.q;
  ring.min_tile_bits = p.k;
  return ring;
}

batch_polymul_fn stream_batch_mul(runtime::context& ctx, runtime::stream s) {
  if (s.ring_q() != 0) {
    throw std::invalid_argument(
        "rlwe: R-LWE products cannot run on a ring-overridden (RNS limb) stream");
  }
  const auto& p = ctx.options().params;
  if (!p.negacyclic || p.incomplete || (p.q - 1) % (2 * p.n) != 0) {
    throw std::invalid_argument(
        "rlwe: R-LWE needs a context ring with a full negacyclic NTT (2n | q-1)");
  }
  return [&ctx, s](std::vector<core::polymul_pair> pairs) mutable {
    std::vector<runtime::job_id> ids;
    ids.reserve(pairs.size());
    for (auto& pr : pairs) {
      ids.push_back(s.submit(runtime::polymul_job{std::move(pr.a), std::move(pr.b)}));
    }
    s.flush();
    std::vector<poly> out;
    out.reserve(ids.size());
    std::exception_ptr failed;
    for (const runtime::job_id id : ids) {
      try {
        out.push_back(std::move(ctx.wait(id).outputs.front()));
      } catch (...) {
        if (!failed) failed = std::current_exception();
      }
    }
    if (failed) std::rethrow_exception(failed);
    return out;
  };
}

}  // namespace bpntt::crypto
