#include "runtime/context.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "nttmath/primes.h"
#include "telemetry/trace_export.h"

namespace bpntt::runtime {

namespace {

// The pool is a member initializer, so its size must be vetted before
// runtime_options::validate() gets a chance to run in the constructor body
// — otherwise an absurd with_threads() value would spawn the threads first
// and reject them after.
unsigned checked_pool_size(const runtime_options& opts) {
  runtime_options::validate_threads(opts.threads);
  return opts.threads;
}

}  // namespace

context::context(runtime_options opts)
    : opts_(std::move(opts)), pool_(checked_pool_size(opts_)) {
  opts_.validate();
  backend_ = make_backend(opts_);
  finish_construction();
}

context::context(runtime_options opts, std::unique_ptr<backend> custom_backend)
    : opts_(std::move(opts)),
      backend_(std::move(custom_backend)),
      pool_(checked_pool_size(opts_)) {
  if (!backend_) {
    throw std::invalid_argument("runtime: context needs a non-null custom backend");
  }
  opts_.params.validate();
  finish_construction();
}

void context::finish_construction() {
  backend_->attach_executor(&pool_);
  caps_ = backend_->capabilities();

  // On-array residency: the manager's placement domains come from the
  // backend's capabilities (banks and channels), its per-bank subarray
  // count from the configured topology (minus the CTRL/CMD subarray), and
  // its row budget either directly (residency_rows) or via the legacy
  // entries knob — entries x n rows spread evenly over the device's data
  // subarrays, so "room for k operands" means the same thing it used to.
  // Host backends (no banks) collapse to one single-subarray pseudo-bank,
  // which makes the entries shim exact: entries x n rows = entries slots.
  if (opts_.operand_cache_entries != 0 || opts_.residency_rows != 0) {
    residency_manager::config rc;
    rc.banks = std::max(1u, caps_.banks());
    rc.channels = std::min(rc.banks, std::max(1u, caps_.channels));
    rc.data_subarrays = caps_.banks() != 0 ? std::max(1u, opts_.topo.subarrays - 1) : 1;
    rc.rows_per_operand = static_cast<unsigned>(opts_.params.n);
    if (opts_.residency_rows != 0) {
      rc.rows_per_subarray = opts_.residency_rows;
    } else {
      const u64 total_rows = static_cast<u64>(opts_.operand_cache_entries) * opts_.params.n;
      const u64 regions = static_cast<u64>(rc.banks) * rc.data_subarrays;
      rc.rows_per_subarray = static_cast<unsigned>((total_rows + regions - 1) / regions);
    }
    resman_ = std::make_unique<residency_manager>(rc);
    backend_->attach_residency(resman_.get());
  }

  // The configured ring must fit the backend's envelope — a narrower
  // backend (or a stub advertising one) is rejected here, not at dispatch.
  if (caps_.max_poly_order != 0 && opts_.params.n > caps_.max_poly_order) {
    throw std::invalid_argument(
        "runtime: ring order n = " + std::to_string(opts_.params.n) +
        " exceeds the backend's max polynomial order " + std::to_string(caps_.max_poly_order));
  }
  const unsigned q_bits = static_cast<unsigned>(std::bit_width(opts_.params.q));
  if (q_bits > caps_.max_modulus_bits) {
    throw std::invalid_argument("runtime: modulus q needs " + std::to_string(q_bits) +
                                " bits but the backend's envelope is " +
                                std::to_string(caps_.max_modulus_bits) + " bits");
  }

  // Scheduler resources: the backend's banks, or one pseudo-resource for
  // non-banked backends (whose dispatches therefore serialize).
  const unsigned resources = std::max(1u, caps_.banks());
  sched_ = std::make_unique<scheduler>(
      scheduler::policy_config{opts_.sched, opts_.aging_limit, opts_.merge_streams}, resources);

  // Register every runtime instrument once; the hot paths bump these
  // pointers directly, and stats()/metrics().to_json() read the same
  // objects — there is no mirrored copy to fall out of sync.
  m_.jobs_submitted = &registry_.make_counter("runtime.jobs_submitted");
  m_.jobs_completed = &registry_.make_counter("runtime.jobs_completed");
  m_.jobs_failed = &registry_.make_counter("runtime.jobs_failed");
  m_.groups = &registry_.make_counter("runtime.groups");
  m_.batches = &registry_.make_counter("runtime.batches");
  m_.waves = &registry_.make_counter("runtime.waves");
  m_.wall_cycles = &registry_.make_gauge("runtime.wall_cycles");
  m_.deadline_misses = &registry_.make_counter("runtime.deadline_misses");
  m_.energy_nj = &registry_.make_real("runtime.energy_nj");
  m_.cache_hits = &registry_.make_counter("cache.hits");
  m_.cache_misses = &registry_.make_counter("cache.misses");
  m_.groups_merged = &registry_.make_counter("sched.groups_merged");
  m_.preemption_yields = &registry_.make_counter("sched.preemption_yields");
  m_.residency_affinity_hits = &registry_.make_counter("sched.residency_affinity_hits");
  m_.residency_evictions = &registry_.make_counter("residency.evictions");
  m_.residency_moves = &registry_.make_counter("residency.moves");
  m_.resident_rows = &registry_.make_gauge("residency.resident_rows");
  m_.resident_rows_peak = &registry_.make_gauge("residency.resident_rows_peak");

  // Tracing is opt-in: without it no recorder exists and every
  // instrumentation site below degenerates to one null test.
  if (opts_.tracing) {
    recorder_ = std::make_unique<telemetry::trace_recorder>(opts_.trace_capacity);
  }
  sched_->attach_metrics(m_.groups_merged, m_.preemption_yields, m_.residency_affinity_hits);
  sched_->attach_recorder(recorder_.get());
  backend_->attach_recorder(recorder_.get());
  if (resman_) {
    resman_->attach_metrics(m_.cache_hits, m_.cache_misses, m_.residency_evictions,
                            m_.residency_moves, m_.resident_rows, m_.resident_rows_peak,
                            recorder_.get());
  }

  // The default stream (id 0) owns every bank — the legacy single-queue
  // behaviour.
  stream_state def;
  def.resources = auto_bank_set(0);
  streams_.emplace(0u, std::move(def));
}

// pool_ is the last member, so the defaulted destructor joins the workers
// (running any still-queued dispatch group to completion) before the state
// those tasks reference is torn down.
context::~context() = default;

// ---- streams ---------------------------------------------------------------

std::vector<unsigned> context::auto_bank_set(unsigned sid) const {
  const unsigned resources = std::max(1u, caps_.banks());
  const unsigned banks = caps_.banks();
  if (sid == 0 || !caps_.overlapping_streams()) {
    std::vector<unsigned> all(resources);
    for (unsigned r = 0; r < resources; ++r) all[r] = r;
    return all;
  }
  // Topology-aware placement: a multi-channel device hands each stream one
  // whole channel's banks; a flat multi-bank device hands it one bank.
  // Round-robin by stream id, so placement is static and deterministic.
  const unsigned channels =
      (caps_.channels > 1 && banks % caps_.channels == 0) ? caps_.channels : 1;
  if (channels > 1) {
    const unsigned per = banks / channels;
    const unsigned ch = (sid - 1) % channels;
    std::vector<unsigned> set(per);
    for (unsigned i = 0; i < per; ++i) set[i] = ch * per + i;
    return set;
  }
  return {(sid - 1) % banks};
}

namespace {

// A ring-overridden (RNS limb) stream must name a modulus every backend
// can retarget to: an odd prime supporting the full negacyclic transform
// at the configured order, inside the modulus envelope the backend
// advertised.  Checked at stream creation so a bad limb fails with a
// precise message instead of a backend throw at dispatch time.
void validate_ring_override(u64 q, const core::ntt_params& params, const backend_caps& caps) {
  if ((q & 1ULL) == 0 || !math::is_prime(q)) {
    throw std::invalid_argument("runtime: stream ring_q = " + std::to_string(q) +
                                " must be an odd prime");
  }
  if ((q - 1) % (2 * params.n) != 0) {
    throw std::invalid_argument("runtime: stream ring_q = " + std::to_string(q) +
                                " does not support negacyclic NTTs of size n = " +
                                std::to_string(params.n) + " (needs q == 1 mod 2n)");
  }
  const unsigned q_bits = static_cast<unsigned>(std::bit_width(q));
  if (q_bits > caps.max_modulus_bits) {
    throw std::invalid_argument("runtime: stream ring_q needs " + std::to_string(q_bits) +
                                " bits but the backend's envelope is " +
                                std::to_string(caps.max_modulus_bits) + " bits");
  }
}

}  // namespace

stream context::stream(stream_options sopts) {
  const unsigned resources = std::max(1u, caps_.banks());
  if (sopts.ring_q != 0) validate_ring_override(sopts.ring_q, opts_.params, caps_);
  // Skip ids still held by live streams (and the default stream's 0): a
  // per-request service that opens and closes streams for long enough
  // wraps the counter, and colliding with a live slot would hand two
  // handles the same queue — the reopened handle must always be a fresh
  // slot, never a resurrected one.
  while (next_stream_id_ == 0 || streams_.count(next_stream_id_) != 0) ++next_stream_id_;
  const unsigned sid = next_stream_id_++;
  stream_state ss;
  if (!sopts.bank_set.empty()) {
    std::vector<unsigned> set = sopts.bank_set;
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    for (const unsigned b : set) {
      if (b >= resources) {
        throw std::invalid_argument("runtime: stream bank_set names bank " + std::to_string(b) +
                                    " but the backend has " + std::to_string(resources) +
                                    " schedulable banks");
      }
    }
    ss.resources = std::move(set);
  } else {
    ss.resources = auto_bank_set(sid);
  }
  ss.sopts = std::move(sopts);
  {
    std::lock_guard<std::mutex> lk(smu_);
    streams_.emplace(sid, std::move(ss));
  }
  return runtime::stream(this, sid);
}

context::stream_state& context::state_of(unsigned sid) {
  const auto it = streams_.find(sid);
  if (it == streams_.end()) {
    throw std::logic_error("runtime: stream handle is closed or foreign to this context");
  }
  return it->second;
}

const context::stream_state& context::state_of(unsigned sid) const {
  const auto it = streams_.find(sid);
  if (it == streams_.end()) {
    throw std::logic_error("runtime: stream handle is closed or foreign to this context");
  }
  return it->second;
}

void context::close_stream(unsigned sid) {
  if (sid == 0) {
    throw std::logic_error("runtime: the default stream cannot be closed");
  }
  (void)state_of(sid);  // precise throw for foreign/already-closed handles
  flush_stream(sid);    // nothing of the stream's may stay stuck in a queue
  {
    std::lock_guard<std::mutex> lk(smu_);
    streams_.erase(sid);  // in-flight groups carry their own hints; ids stay waitable
  }
  // If this was a dedicated limb stream, forget it so rns_stream() opens a
  // fresh one instead of handing out a dangling id.
  for (auto it = rns_streams_.begin(); it != rns_streams_.end(); ++it) {
    if (it->second == sid) {
      rns_streams_.erase(it);
      break;
    }
  }
}

std::size_t context::stream_pending(unsigned sid) const { return state_of(sid).queue.size(); }

std::vector<unsigned> context::stream_bank_set(unsigned sid) const {
  const auto& ss = state_of(sid);
  return caps_.banks() == 0 ? std::vector<unsigned>{} : ss.resources;
}

context& stream::bound() const {
  if (ctx_ == nullptr) {
    throw std::logic_error("runtime: stream handle is not bound to a context");
  }
  return *ctx_;
}

job_id stream::submit(ntt_job j) { return bound().submit_ntt(id_, std::move(j)); }
job_id stream::submit(polymul_job j) { return bound().submit_polymul(id_, std::move(j)); }
job_id stream::submit(rns_rescale_job j) { return bound().submit_rescale(id_, std::move(j)); }
job_id stream::submit(rns_base_extend_job j) {
  return bound().submit_base_extend(id_, std::move(j));
}
void stream::flush() { bound().flush_stream(id_); }
void stream::close() { bound().close_stream(id_); }
std::size_t stream::pending() const { return bound().stream_pending(id_); }
u64 stream::ring_q() const { return bound().state_of(id_).sopts.ring_q; }
std::vector<unsigned> stream::bank_set() const { return bound().stream_bank_set(id_); }

// ---- submission ------------------------------------------------------------

namespace {

void require_ring_poly(const std::vector<u64>& coeffs, u64 n, u64 q, const char* what) {
  if (coeffs.size() != n) {
    throw std::invalid_argument(std::string("runtime: ") + what + " must have exactly n = " +
                                std::to_string(n) + " coefficients");
  }
  for (const u64 c : coeffs) {
    if (c >= q) {
      throw std::invalid_argument(std::string("runtime: ") + what +
                                  " coefficients must be canonical (< q)");
    }
  }
}

}  // namespace

job_id context::enqueue(unsigned sid, job j) {
  const job_id id = next_id_++;
  // Count the submission before the job becomes visible in any queue, so a
  // concurrent stats() reading jobs_submitted *last* can never observe an
  // outcome the submission counter has not covered yet.
  m_.jobs_submitted->add();
  std::lock_guard<std::mutex> lk(smu_);
  state_of(sid).queue.emplace_back(id, std::move(j));
  return id;
}

job_id context::submit_ntt(unsigned sid, ntt_job j) {
  const stream_state& ss = state_of(sid);
  const u64 q = ss.sopts.ring_q != 0 ? ss.sopts.ring_q : opts_.params.q;
  require_ring_poly(j.coeffs, opts_.params.n, q, "ntt_job");
  return enqueue(sid, std::move(j));
}

job_id context::submit_polymul(unsigned sid, polymul_job j) {
  const stream_state& ss = state_of(sid);
  const u64 q = ss.sopts.ring_q != 0 ? ss.sopts.ring_q : opts_.params.q;
  require_ring_poly(j.a, opts_.params.n, q, "polymul_job.a");
  require_ring_poly(j.b, opts_.params.n, q, "polymul_job.b");
  if (!caps_.polymul) {
    throw std::invalid_argument(
        "runtime: this backend's capabilities exclude ring products at these parameters (the "
        "in-SRAM pipeline needs two n-row operand regions per lane: 2n <= data_rows)");
  }
  return enqueue(sid, std::move(j));
}

job_id context::submit_rescale(unsigned sid, rns_rescale_job j) {
  const stream_state& ss = state_of(sid);
  const u64 q = ss.sopts.ring_q != 0 ? ss.sopts.ring_q : opts_.params.q;
  if (j.prime != q) {
    throw std::invalid_argument(
        "runtime: rns_rescale_job names limb prime " + std::to_string(j.prime) +
        " but this stream's ring modulus is " + std::to_string(q) +
        " (the rescale correction of a limb rides that limb's stream)");
  }
  if (j.drop_prime == 0 || (j.drop_prime & 1ULL) == 0 || !math::is_prime(j.drop_prime)) {
    throw std::invalid_argument("runtime: rns_rescale_job drop prime " +
                                std::to_string(j.drop_prime) + " must be an odd prime");
  }
  if (j.drop_prime == j.prime) {
    throw std::invalid_argument(
        "runtime: rns_rescale_job drops its own limb prime " + std::to_string(j.prime) +
        " (the dropped limb is excluded from the rescale fan-out)");
  }
  if (j.congruence >= 2 && j.congruence % j.drop_prime == 0) {
    throw std::invalid_argument(
        "runtime: rns_rescale_job congruence " + std::to_string(j.congruence) +
        " is a multiple of drop prime " + std::to_string(j.drop_prime) +
        " (the plaintext modulus must be coprime to the dropped limb)");
  }
  require_ring_poly(j.x, opts_.params.n, j.prime, "rns_rescale_job.x");
  require_ring_poly(j.dropped, opts_.params.n, j.drop_prime, "rns_rescale_job.dropped");
  return enqueue(sid, std::move(j));
}

job_id context::submit_base_extend(unsigned sid, rns_base_extend_job j) {
  const stream_state& ss = state_of(sid);
  const u64 q = ss.sopts.ring_q != 0 ? ss.sopts.ring_q : opts_.params.q;
  if (j.prime != q) {
    throw std::invalid_argument(
        "runtime: rns_base_extend_job names target prime " + std::to_string(j.prime) +
        " but this stream's ring modulus is " + std::to_string(q) +
        " (a new limb's extension rides that limb's stream)");
  }
  if (j.source_primes.empty()) {
    throw std::invalid_argument(
        "runtime: rns_base_extend_job needs at least one source limb prime");
  }
  if (j.residues.size() != j.source_primes.size()) {
    throw std::invalid_argument(
        "runtime: rns_base_extend_job carries " + std::to_string(j.residues.size()) +
        " residue polynomials for a source chain of " +
        std::to_string(j.source_primes.size()) + " primes");
  }
  for (std::size_t i = 0; i < j.source_primes.size(); ++i) {
    const u64 p = j.source_primes[i];
    if (p == 0 || (p & 1ULL) == 0 || !math::is_prime(p)) {
      throw std::invalid_argument("runtime: rns_base_extend_job source prime " +
                                  std::to_string(p) + " must be an odd prime");
    }
    if (p == j.prime) {
      throw std::invalid_argument(
          "runtime: rns_base_extend_job extends to source prime " + std::to_string(p) +
          " (the target limb must be new — it already carries those residues)");
    }
    for (std::size_t k = i + 1; k < j.source_primes.size(); ++k) {
      if (j.source_primes[k] == p) {
        throw std::invalid_argument("runtime: rns_base_extend_job repeats source prime " +
                                    std::to_string(p) +
                                    " (an RNS basis needs pairwise-coprime moduli)");
      }
    }
    const std::string what = "rns_base_extend_job limb " + std::to_string(i);
    require_ring_poly(j.residues[i], opts_.params.n, p, what.c_str());
  }
  return enqueue(sid, std::move(j));
}

job_id context::submit(ntt_job j) { return submit_ntt(0, std::move(j)); }
job_id context::submit(polymul_job j) { return submit_polymul(0, std::move(j)); }

// ---- RNS fan-out ------------------------------------------------------------

stream context::rns_stream(u64 prime) {
  if (prime == 0) {
    throw std::invalid_argument("runtime: rns_stream needs a non-zero limb prime");
  }
  const auto it = rns_streams_.find(prime);
  if (it != rns_streams_.end()) return runtime::stream(this, it->second);
  stream_options sopts;
  sopts.ring_q = prime;
  runtime::stream s = stream(std::move(sopts));
  rns_streams_.emplace(prime, s.id());
  return s;
}

rns_submission context::submit_rns(rns_polymul_job j) {
  const std::size_t limbs = j.primes.size();
  if (limbs == 0) {
    throw std::invalid_argument("runtime: rns_polymul_job needs at least one limb prime");
  }
  if (j.a.size() != limbs || j.b.size() != limbs) {
    throw std::invalid_argument(
        "runtime: rns_polymul_job carries " + std::to_string(j.a.size()) + "/" +
        std::to_string(j.b.size()) + " residue polynomials for a chain of " +
        std::to_string(limbs) + " primes");
  }
  for (std::size_t i = 0; i < limbs; ++i) {
    for (std::size_t k = i + 1; k < limbs; ++k) {
      if (j.primes[i] == j.primes[k]) {
        throw std::invalid_argument("runtime: rns_polymul_job repeats limb prime " +
                                    std::to_string(j.primes[i]) +
                                    " (an RNS basis needs pairwise-coprime moduli)");
      }
    }
  }
  // Open (or reuse) every limb stream and validate every residue
  // polynomial before enqueueing anything, so an invalid limb rejects the
  // whole job instead of half of it.
  std::vector<unsigned> sids(limbs);
  for (std::size_t i = 0; i < limbs; ++i) {
    sids[i] = rns_stream(j.primes[i]).id();
    const std::string what = "rns_polymul_job limb " + std::to_string(i);
    require_ring_poly(j.a[i], opts_.params.n, j.primes[i], (what + ".a").c_str());
    require_ring_poly(j.b[i], opts_.params.n, j.primes[i], (what + ".b").c_str());
  }

  rns_submission sub;
  sub.primes = std::move(j.primes);
  sub.limb_ids.reserve(limbs);
  for (std::size_t i = 0; i < limbs; ++i) {
    sub.limb_ids.push_back(
        submit_polymul(sids[i], polymul_job{std::move(j.a[i]), std::move(j.b[i])}));
  }
  return sub;
}

std::size_t context::pending() const noexcept {
  std::lock_guard<std::mutex> lk(smu_);
  std::size_t n = 0;
  for (const auto& [sid, ss] : streams_) n += ss.queue.size();
  return n;
}

std::size_t context::open_streams() const noexcept {
  std::lock_guard<std::mutex> lk(smu_);
  return streams_.size();
}

scheduler_stats context::stats() const {
  // Assembled straight from the registry instruments — the scheduler's and
  // operand cache's counters are attached to the same objects, so nothing
  // here is a mirrored copy that could go stale.  Read-order discipline
  // replaces the old all-under-one-lock copy: outcome counters first, the
  // in-flight gauge second, jobs_submitted *last*.  A job leaves in_flight_
  // before its outcome counter bumps (both under mu_) and is counted
  // submitted before it is queued anywhere, so a snapshot can never show
  // completed + failed + in_flight > submitted.
  scheduler_stats s;
  s.jobs_completed = m_.jobs_completed->value();
  s.jobs_failed = m_.jobs_failed->value();
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.jobs_in_flight = in_flight_.size();
  }
  s.groups = m_.groups->value();
  s.batches = m_.batches->value();
  s.waves = m_.waves->value();
  s.wall_cycles = m_.wall_cycles->value();
  s.deadline_misses = m_.deadline_misses->value();
  s.energy_nj = m_.energy_nj->value();
  s.operand_cache_hits = m_.cache_hits->value();
  s.operand_cache_misses = m_.cache_misses->value();
  s.groups_merged = m_.groups_merged->value();
  s.preemption_yields = m_.preemption_yields->value();
  s.residency_evictions = m_.residency_evictions->value();
  s.residency_moves = m_.residency_moves->value();
  s.residency_affinity_hits = m_.residency_affinity_hits->value();
  s.resident_rows = m_.resident_rows->value();
  s.resident_rows_peak = m_.resident_rows_peak->value();
  s.jobs_submitted = m_.jobs_submitted->value();
  return s;
}

void context::export_trace(std::ostream& os) const {
  if (!recorder_) {
    throw std::logic_error(
        "runtime: tracing is disabled — construct the context with "
        "runtime_options::with_tracing() to record a timeline");
  }
  telemetry::trace_export_layout layout;
  layout.banks = std::max(1u, caps_.banks());
  layout.banks_per_channel = (caps_.channels > 1 && layout.banks % caps_.channels == 0)
                                 ? layout.banks / caps_.channels
                                 : layout.banks;
  telemetry::write_chrome_trace(os, recorder_->snapshot_events(), layout);
}

void context::export_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("runtime: cannot open trace output file " + path);
  }
  export_trace(os);
}

std::size_t context::operand_cache_size() const noexcept {
  return resman_ ? resman_->size() : 0;
}

u64 context::resident_rows() const noexcept {
  return resman_ ? resman_->resident_rows() : 0;
}

u64 context::resident_row_capacity() const noexcept {
  return resman_ ? resman_->capacity_rows() : 0;
}

std::size_t context::invalidate_operand(const std::vector<u64>& coeffs) noexcept {
  return resman_ ? resman_->invalidate(coeffs) : 0;
}

std::size_t context::invalidate_operand_cache() noexcept {
  return resman_ ? resman_->clear() : 0;
}

void context::pin_operand(const std::vector<u64>& coeffs) noexcept {
  if (resman_) resman_->pin(coeffs);
}

void context::unpin_operand(const std::vector<u64>& coeffs) noexcept {
  if (resman_) resman_->unpin(coeffs);
}

// ---- group building and admission ------------------------------------------

std::shared_ptr<dispatch_group> context::build_group(unsigned sid) {
  std::lock_guard<std::mutex> lk(smu_);
  stream_state& ss = state_of(sid);
  if (ss.queue.empty()) return nullptr;
  // Jobs of one stream are independent, so its pending set is partitioned
  // by kind (and direction) into one backend dispatch each — the widest
  // batches the backend can shard over banks, lanes and waves.  Results
  // are keyed by job_id, so regrouping never misroutes an output.
  auto g = std::make_shared<dispatch_group>();
  for (auto& [id, j] : ss.queue) {
    const auto push = [id = id](auto& kind, auto&& job) {
      kind.ids.push_back(id);
      kind.jobs.push_back(std::move(job));
    };
    if (auto* ntt = std::get_if<ntt_job>(&j)) {
      push(ntt->dir == transform_dir::forward ? g->plan.fwd : g->plan.inv, std::move(*ntt));
    } else if (auto* mul = std::get_if<polymul_job>(&j)) {
      push(g->plan.muls, std::move(*mul));
    } else if (auto* rescale = std::get_if<rns_rescale_job>(&j)) {
      push(g->plan.rescales, std::move(*rescale));
    } else {
      push(g->plan.bexts, std::move(std::get<rns_base_extend_job>(j)));
    }
  }
  ss.queue.clear();

  g->hints.stream = sid;
  g->hints.priority = ss.sopts.priority;
  g->hints.deadline_cycles = ss.sopts.deadline_cycles;
  g->hints.ring_q = ss.sopts.ring_q;
  g->hints.chunk_budget = ss.sopts.chunk_budget;
  // Non-banked backends get no bank subset (the pseudo-resource is a
  // scheduler fiction); banked backends are confined to the stream's banks.
  if (caps_.banks() != 0) g->hints.bank_set = ss.resources;
  g->resources = ss.resources;
  // Residency affinity hint: the banks currently holding images for this
  // stream's ring — the scheduler counts a hit when the claim lands on one.
  if (resman_ && ss.sopts.ring_q != 0 && caps_.banks() != 0) {
    g->affinity_banks = resman_->banks_holding(ss.sopts.ring_q);
  }
  g->mergeable = !ss.sopts.no_merge;
  return g;
}

void context::admit_group_locked(std::shared_ptr<dispatch_group> g) {
  // Jobs become in-flight before the group can run, so a wait() racing the
  // pool can never mistake a dispatched job for a claimed one.
  g->plan.for_each_ids(
      [&](const std::vector<job_id>& ids) { in_flight_.insert(ids.begin(), ids.end()); });
  m_.groups->add();
  const dispatch_group* gp = g.get();
  sched_->enqueue(std::move(g));
  if (recorder_) {
    // The group's lifecycle starts here: seq/ref_vtime were just assigned
    // by the scheduler.  A queue-depth sample rides along so the counter
    // track shows the backlog the group joined.
    recorder_->record({.ts = gp->ref_vtime,
                       .dur = 0,
                       .a = 0,
                       .track = telemetry::kTrackScheduler,
                       .arg = static_cast<telemetry::u32>(gp->seq),
                       .op = telemetry::trace_op::group_enqueue});
    recorder_->record({.ts = gp->ref_vtime,
                       .dur = 0,
                       .a = sched_->ready_groups(),
                       .track = telemetry::kTrackScheduler,
                       .arg = 0,
                       .op = telemetry::trace_op::queue_depth});
  }
}

void context::kick_locked() {
  for (auto& gp : sched_->take_runnable()) {
    if (recorder_) {
      recorder_->record({.ts = gp->ref_vtime,
                         .dur = 0,
                         .a = gp->resources.size(),
                         .track = telemetry::kTrackScheduler,
                         .arg = static_cast<telemetry::u32>(gp->seq),
                         .op = telemetry::trace_op::bank_claim});
    }
    pool_.enqueue([this, gp] { run_group(gp); });
  }
}

void context::flush_stream(unsigned sid) {
  auto g = build_group(sid);
  if (!g) return;
  std::lock_guard<std::mutex> lk(mu_);
  admit_group_locked(std::move(g));
  kick_locked();
}

void context::flush() {
  // Every stream's group enters the ready queue before any scheduling
  // decision, so priority order holds across streams flushed together —
  // a lower-id bulk stream cannot seize contended banks ahead of a
  // higher-priority stream in the same flush.
  std::vector<std::shared_ptr<dispatch_group>> groups;
  for (auto& [sid, ss] : streams_) {
    if (auto g = build_group(sid)) groups.push_back(std::move(g));
  }
  if (groups.empty()) return;
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& g : groups) admit_group_locked(std::move(g));
  kick_locked();
}

// ---- group execution --------------------------------------------------------

template <class Job, class Run>
bool context::run_kind(const std::shared_ptr<dispatch_group>& g,
                       const std::vector<dispatch_group*>& members, const dispatch_hints& hints,
                       kind_batch<Job> flush_plan::*kind, telemetry::trace_op op, Run&& run) {
  // Budget 0 dispatches the kind whole with no yield points.  A budgeted
  // (solo) group hands its jobs to the backend at most budget at a time and
  // offers its banks to any earlier-ordered ready group between chunks
  // (scheduler::should_yield).
  const u64 budget = hints.chunk_budget;
  for (;;) {
    std::vector<member_slice> slices;
    std::vector<Job> jobs;
    for (dispatch_group* m : members) {
      auto& [ids, queued] = m->plan.*kind;
      if (ids.empty()) continue;
      const std::size_t take =
          budget == 0 ? ids.size() : std::min<std::size_t>(ids.size(), budget);
      slices.push_back({m, std::vector<job_id>(ids.begin(), ids.begin() + take)});
      jobs.insert(jobs.end(), std::make_move_iterator(queued.begin()),
                  std::make_move_iterator(queued.begin() + take));
      ids.erase(ids.begin(), ids.begin() + take);
      queued.erase(queued.begin(), queued.begin() + take);
    }
    if (slices.empty()) return false;

    // A backend exception fails exactly this dispatch (or chunk): sibling
    // dispatches of the same group, and other streams' groups, still run.
    const std::size_t total = jobs.size();
    try {
      distribute(*g, slices, total, run(jobs), op);
    } catch (const std::exception& e) {
      for (const auto& s : slices) fail_group(*s.g, s.ids, e.what());
    } catch (...) {
      for (const auto& s : slices) fail_group(*s.g, s.ids, "unknown backend error");
    }

    if (budget != 0 && !g->plan.empty()) {
      std::lock_guard<std::mutex> lk(mu_);
      if (sched_->should_yield(*g)) {
        // Give the banks to the earlier-ordered group: release the claim,
        // re-enqueue the remainder at its original policy position, and
        // schedule — the urgent group claims the banks on this pass.
        sched_->release(*g);
        sched_->requeue_preempted(g);
        kick_locked();
        return true;
      }
    }
  }
}

void context::run_group(const std::shared_ptr<dispatch_group>& g) {
  // Members: the host first, then absorbed groups in absorption order.  A
  // merged group runs whole on the claimed bank union; a solo group keeps
  // its stream's chunk budget.  Per-job math is independent, so a
  // concatenated dispatch is bit-identical to running the members
  // separately — only the makespan and per-dispatch amortization change.
  std::vector<dispatch_group*> members{g.get()};
  for (const auto& m : g->absorbed) members.push_back(m.get());
  dispatch_hints hints = g->hints;
  if (members.size() > 1) hints.chunk_budget = 0;
  if (caps_.banks() != 0) hints.bank_set = g->resources;

  const auto coeffs = [](std::vector<ntt_job>& jobs) {
    std::vector<std::vector<u64>> polys;
    polys.reserve(jobs.size());
    for (auto& j : jobs) polys.push_back(std::move(j.coeffs));
    return polys;
  };
  // Kinds run in a fixed order; a yield leaves the rest of the plan queued.
  const bool yielded =
      run_kind(g, members, hints, &flush_plan::fwd, telemetry::trace_op::ntt_forward,
               [&](std::vector<ntt_job>& jobs) {
                 return backend_->run_ntt(coeffs(jobs), transform_dir::forward, hints);
               }) ||
      run_kind(g, members, hints, &flush_plan::inv, telemetry::trace_op::ntt_inverse,
               [&](std::vector<ntt_job>& jobs) {
                 return backend_->run_ntt(coeffs(jobs), transform_dir::inverse, hints);
               }) ||
      run_kind(g, members, hints, &flush_plan::muls, telemetry::trace_op::polymul,
               [&](std::vector<polymul_job>& jobs) {
                 std::vector<core::polymul_pair> pairs;
                 pairs.reserve(jobs.size());
                 for (auto& j : jobs) pairs.push_back({std::move(j.a), std::move(j.b)});
                 return backend_->run_polymul(pairs, hints);
               }) ||
      run_kind(g, members, hints, &flush_plan::rescales, telemetry::trace_op::rescale,
               [&](std::vector<rns_rescale_job>& jobs) {
                 return backend_->run_rescale(jobs, hints);
               }) ||
      run_kind(g, members, hints, &flush_plan::bexts, telemetry::trace_op::base_extend,
               [&](std::vector<rns_base_extend_job>& jobs) {
                 return backend_->run_base_extend(jobs, hints);
               });
  // A yielded group released its banks and re-entered the ready queue
  // inside the yield decision; everything else releases here and lets the
  // next contender in.
  if (yielded) return;
  std::lock_guard<std::mutex> lk(mu_);
  sched_->release(*g);
  kick_locked();
}

// ---- accounting and completion ---------------------------------------------

u64 context::account_locked(const dispatch_group& g, const batch_result& r,
                            telemetry::trace_op op, std::size_t jobs) {
  const u64 end = sched_->account(g, r.wall_cycles);
  m_.batches->add();
  m_.waves->add(r.waves);
  m_.wall_cycles->set_max(end);
  m_.energy_nj->add(r.stats.energy_pj * 1e-3);
  if (recorder_) {
    recorder_->set_watermark(end);
    // One span per claimed bank over exactly [end - wall, end) — the
    // interval scheduler::account just advanced the frontiers by.  The max
    // span end across bank rows therefore *equals* stats().wall_cycles; the
    // trace_export_test asserts that reconstruction exactly.
    for (const unsigned b : g.resources) {
      recorder_->record({.ts = end - r.wall_cycles,
                         .dur = r.wall_cycles,
                         .a = jobs,
                         .track = b,
                         .arg = static_cast<telemetry::u32>(g.seq),
                         .op = op});
    }
  }
  return end;
}

namespace {

// A backend returning the wrong number of outputs would misroute results;
// refuse loudly (the dispatch guard converts this into per-job failures).
void require_output_count(std::size_t got, std::size_t want, const char* what) {
  if (got != want) {
    throw std::logic_error("runtime: backend returned " + std::to_string(got) +
                           " outputs for " + what + " of " + std::to_string(want) + " jobs");
  }
}

// The deadline check.  A stream deadline is a completion budget measured
// from the stream's flush (the group's reference virtual time); finishing
// *exactly at* the deadline is a meet, not a miss.
bool past_deadline(const dispatch_hints& hints, u64 ref_vtime, u64 end) noexcept {
  return hints.deadline_cycles != 0 && end - ref_vtime > hints.deadline_cycles;
}

}  // namespace

void context::distribute(const dispatch_group& host, const std::vector<member_slice>& slices,
                         std::size_t total_jobs, batch_result&& r, telemetry::trace_op op) {
  require_output_count(r.outputs.size(), total_jobs, "a dispatch");
  std::lock_guard<std::mutex> lk(mu_);
  // One accounting event on the claimed banks: every member's jobs finish
  // at the batch's end, but each member's deadline is judged from its
  // *own* flush frontier — per-tenant accounting survives a merge.
  const u64 end = account_locked(host, r, op, total_jobs);
  std::size_t offset = 0;
  for (const auto& s : slices) {
    const bool missed = past_deadline(s.g->hints, s.g->ref_vtime, end);
    if (missed) {
      m_.deadline_misses->add(s.ids.size());
      if (recorder_) {
        recorder_->record({.ts = end,
                           .dur = 0,
                           .a = s.ids.size(),
                           .track = telemetry::kTrackScheduler,
                           .arg = static_cast<telemetry::u32>(s.g->seq),
                           .op = telemetry::trace_op::deadline_miss});
      }
    }
    for (const job_id id : s.ids) {
      job_result res;
      res.outputs.push_back(std::move(r.outputs[offset++]));
      res.op_stats = r.stats;
      res.wall_cycles = r.wall_cycles;
      res.jobs_in_batch = total_jobs;
      res.stream = s.g->hints.stream;
      res.finish_cycles = end;
      res.deadline_missed = missed;
      done_.emplace(id, std::move(res));
      in_flight_.erase(id);
    }
    m_.jobs_completed->add(s.ids.size());
  }
  cv_.notify_all();
}

void context::fail_group(const dispatch_group& g, const std::vector<job_id>& ids,
                         const std::string& what) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const job_id id : ids) {
    job_result res;
    res.status = job_status::failed;
    res.error = what;
    res.jobs_in_batch = ids.size();
    res.stream = g.hints.stream;
    done_.emplace(id, std::move(res));
    in_flight_.erase(id);
  }
  m_.jobs_failed->add(ids.size());
  cv_.notify_all();
}

// ---- retrieval -------------------------------------------------------------

std::optional<unsigned> context::queued_on(job_id id) const noexcept {
  std::lock_guard<std::mutex> lk(smu_);
  for (const auto& [sid, ss] : streams_) {
    for (const auto& [qid, j] : ss.queue) {
      if (qid == id) return sid;
    }
  }
  return std::nullopt;
}

job_result context::wait(job_id id) {
  if (id == 0 || id >= next_id_) throw std::out_of_range("runtime: unknown job id");
  if (const auto sid = queued_on(id)) flush_stream(*sid);
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return done_.count(id) != 0 || in_flight_.count(id) == 0; });
  auto it = done_.find(id);
  if (it == done_.end()) {
    throw std::out_of_range("runtime: job result already claimed");
  }
  job_result res = std::move(it->second);
  done_.erase(it);
  if (res.status == job_status::failed) {
    throw job_failed_error(id, res.error);
  }
  return res;
}

std::optional<job_result> context::try_wait(job_id id) {
  if (id == 0 || id >= next_id_) throw std::out_of_range("runtime: unknown job id");
  const bool queued = queued_on(id).has_value();
  std::lock_guard<std::mutex> lk(mu_);
  auto it = done_.find(id);
  if (it != done_.end()) {
    job_result res = std::move(it->second);
    done_.erase(it);
    return res;
  }
  if (queued || in_flight_.count(id) != 0) return std::nullopt;
  throw std::out_of_range("runtime: job result already claimed");
}

void context::sync() {
  flush();
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return in_flight_.empty(); });
}

std::vector<job_result> context::wait_all() {
  flush();
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return in_flight_.empty(); });
  std::vector<job_result> all;
  all.reserve(done_.size());
  for (auto& [id, res] : done_) all.push_back(std::move(res));
  done_.clear();
  return all;
}

}  // namespace bpntt::runtime
