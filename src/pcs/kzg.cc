#include "src/pcs/kzg.h"

#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/plonk/proof_io.h"
#include "src/poly/polynomial.h"

namespace zkml {

KzgSetup KzgSetup::Create(size_t max_len, uint64_t seed) {
  Rng rng(seed);
  KzgSetup setup;
  setup.tau = Fr::Random(rng);
  setup.powers.resize(max_len);
  // powers[i] = tau^i * G, scalar-multiplied in parallel. Setup cost is
  // excluded from benchmarks (the real system downloads ceremony output).
  std::vector<Fr> tau_pows(max_len);
  Fr tau_i = Fr::One();
  for (size_t i = 0; i < max_len; ++i) {
    tau_pows[i] = tau_i;
    tau_i *= setup.tau;
  }
  const G1 g = G1::Generator();
  ParallelFor(0, max_len, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      setup.powers[i] = g.ScalarMul(tau_pows[i]).ToAffine();
    }
  });
  return setup;
}

void KzgPcs::OpenBatch(const std::vector<const std::vector<Fr>*>& polys, const Fr& point,
                       Transcript* transcript, std::vector<uint8_t>* proof_out) const {
  obs::Span span("kzg-open-batch");
  static obs::Counter& opens = obs::MetricsRegistry::Global().counter("pcs.kzg.open_batches");
  opens.Increment();
  ZKML_CHECK(!polys.empty());
  const Fr v = transcript->ChallengeFr("kzg-batch-v");
  size_t max_size = 0;
  for (const auto* p : polys) {
    max_size = std::max(max_size, p->size());
  }
  std::vector<Fr> combined(max_size, Fr::Zero());
  Fr vi = Fr::One();
  for (const auto* p : polys) {
    for (size_t i = 0; i < p->size(); ++i) {
      combined[i] += (*p)[i] * vi;
    }
    vi *= v;
  }
  Fr y;
  Poly quotient = Poly(std::move(combined)).DivideByLinear(point, &y);
  const PcsCommitment w = Commit(quotient.coeffs());
  transcript->AppendPoint("kzg-w", w.point);
  const auto bytes = w.point.Serialize();
  proof_out->insert(proof_out->end(), bytes.begin(), bytes.end());
}

Status KzgPcs::VerifyBatch(const std::vector<PcsCommitment>& commitments,
                           const std::vector<Fr>& evals, const Fr& point, Transcript* transcript,
                           const std::vector<uint8_t>& proof, size_t* offset) const {
  obs::Span span("kzg-verify-batch");
  static obs::Counter& verifies = obs::MetricsRegistry::Global().counter("pcs.kzg.verify_batches");
  verifies.Increment();
  if (commitments.size() != evals.size()) {
    return InvalidArgumentError("kzg: " + std::to_string(commitments.size()) +
                                " commitments but " + std::to_string(evals.size()) +
                                " claimed evaluations");
  }
  if (commitments.empty()) {
    return InvalidArgumentError("kzg: empty opening batch");
  }
  if (setup_->powers.empty()) {
    return OutOfRangeError("kzg: empty setup");
  }
  const Fr v = transcript->ChallengeFr("kzg-batch-v");
  G1Affine w;
  ZKML_RETURN_IF_ERROR(ProofReadPoint(proof, offset, &w, "kzg witness point"));
  transcript->AppendPoint("kzg-w", w);

  // C* = sum v^i C_i, y* = sum v^i y_i.
  G1 c_star;
  Fr y_star = Fr::Zero();
  Fr vi = Fr::One();
  for (size_t i = 0; i < commitments.size(); ++i) {
    c_star += G1::FromAffine(commitments[i].point).ScalarMul(vi);
    y_star += evals[i] * vi;
    vi *= v;
  }
  // Pairing check simulated in the exponent (see header comment):
  //   C* - y*·G == (tau - z)·W.
  const G1 lhs = c_star - G1::Generator().ScalarMul(y_star);
  if (defer_ != nullptr) {
    // Deferred verification: record the claim; KzgAccumulator::Check folds
    // every proof's claim into one RLC'd pairing check.
    defer_->Add(KzgDeferredOpening{lhs, w, point, 0});
    return Status::Ok();
  }
  static obs::Counter& pairings =
      obs::MetricsRegistry::Global().counter("pcs.kzg.pairing_checks");
  pairings.Increment();
  const G1 rhs = G1::FromAffine(w).ScalarMul(setup_->tau - point);
  if (!(lhs == rhs)) {
    return VerifyFailedError("kzg: opening equation C* - y*G != (tau - z)W for batch of " +
                             std::to_string(commitments.size()) + " commitments");
  }
  return Status::Ok();
}

Status KzgAccumulator::Check(const KzgSetup& setup, std::vector<size_t>* blamed_tags) const {
  obs::Span span("kzg-aggregate-check");
  static obs::Counter& checks =
      obs::MetricsRegistry::Global().counter("pcs.kzg.aggregate_checks");
  static obs::Counter& pairings =
      obs::MetricsRegistry::Global().counter("pcs.kzg.pairing_checks");
  checks.Increment();
  if (entries_.empty()) {
    return InvalidArgumentError("kzg aggregate: no deferred openings to check");
  }
  // The RLC challenge is bound to every claim being combined, so an attacker
  // cannot craft two bad claims that cancel.
  Transcript transcript("zkml-kzg-aggregate");
  for (const KzgDeferredOpening& e : entries_) {
    transcript.AppendPoint("agg-lhs", e.lhs.ToAffine());
    transcript.AppendPoint("agg-w", e.w);
    transcript.AppendFr("agg-z", e.point);
  }
  const Fr r = transcript.ChallengeFr("kzg-aggregate-r");
  // sum r^j lhs_j == sum r^j (tau - z_j) W_j — the exponent form of the single
  // batched pairing e(sum r^j (C_j - y_j·G + z_j·W_j), H) = e(sum r^j W_j, tau·H).
  G1 lhs_acc, rhs_acc;
  Fr rj = Fr::One();
  for (const KzgDeferredOpening& e : entries_) {
    lhs_acc += e.lhs.ScalarMul(rj);
    rhs_acc += G1::FromAffine(e.w).ScalarMul(rj * (setup.tau - e.point));
    rj *= r;
  }
  pairings.Increment();
  if (lhs_acc == rhs_acc) {
    return Status::Ok();
  }
  // Rejection path: re-check each claim on its own to name the proofs whose
  // openings are bad. These per-claim checks only run after the single
  // aggregate pairing check has already failed.
  std::vector<size_t> bad;
  for (const KzgDeferredOpening& e : entries_) {
    pairings.Increment();
    if (!(e.lhs == G1::FromAffine(e.w).ScalarMul(setup.tau - e.point)) &&
        (bad.empty() || bad.back() != e.tag)) {
      bad.push_back(e.tag);
    }
  }
  std::string who;
  for (const size_t tag : bad) {
    who += (who.empty() ? "" : ",") + std::to_string(tag);
  }
  if (blamed_tags != nullptr) {
    blamed_tags->insert(blamed_tags->end(), bad.begin(), bad.end());
  }
  if (bad.empty()) {
    // Every claim passes individually but the combination fails: impossible
    // for honestly accumulated claims, so report it as corruption.
    return VerifyFailedError("kzg aggregate: combined pairing check failed across " +
                             std::to_string(entries_.size()) +
                             " deferred openings (no individual claim blamed)");
  }
  return VerifyFailedError("kzg aggregate: combined pairing check failed across " +
                           std::to_string(entries_.size()) +
                           " deferred openings; blamed proof(s): " + who);
}

}  // namespace zkml
