#include "src/pcs/kzg.h"

#include <array>
#include <bit>
#include <cstring>
#include <unordered_map>

#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/plonk/proof_io.h"
#include "src/poly/polynomial.h"

namespace zkml {

KzgSetup KzgSetup::Create(size_t n, uint64_t seed) {
  ZKML_CHECK_MSG(std::has_single_bit(n), "KZG setup size must be a power of two");
  Rng rng(seed);
  KzgSetup setup;
  setup.tau = Fr::Random(rng);
  setup.n = n;
  return setup;
}

std::vector<G1Affine> KzgSetup::LagrangeBasis(const EvaluationDomain& domain) const {
  ZKML_CHECK_MSG(domain.size() == n, "KZG Lagrange basis domain must have the setup's size");
  // tau^n == 1 exactly when tau is a point of the domain (probability
  // n/|Fr|), where L_i(tau) is a unit vector and the basis degenerates.
  ZKML_CHECK_MSG(!domain.EvaluateVanishing(tau).IsZero(),
                 "KZG trapdoor lies on the Lagrange domain");
  return MulGenerator(domain.LagrangeCoefficients(tau));
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
  // W = [q(tau)]G, committed from the quotient's evaluations: one n-point
  // FFT, then the same Lagrange commit as every prover round.
  const PcsCommitment w = CommitLagrange(domain()->FftFromCoeffs(quotient.coeffs()));
  transcript->AppendPoint("kzg-w", w.point);
  const auto bytes = w.point.Serialize();
  proof_out->insert(proof_out->end(), bytes.begin(), bytes.end());
}

namespace {

// Reads one batch's witness point in transcript order and returns the batch
// as a claim: the commitments with their v^i scalars, y* = sum v^i y_i, W, z.
Status ReadClaim(const PcsOpeningBatch& batch, Transcript* transcript,
                 const std::vector<uint8_t>& proof, size_t* offset, KzgOpeningClaim* claim) {
  ZKML_RETURN_IF_ERROR(CheckOpeningBatchShape(batch, "kzg"));
  const Fr v = transcript->ChallengeFr("kzg-batch-v");
  ZKML_RETURN_IF_ERROR(ProofReadPoint(proof, offset, &claim->w, "kzg witness point"));
  transcript->AppendPoint("kzg-w", claim->w);
  claim->point = batch.point;
  claim->y_star = Fr::Zero();
  Fr vi = Fr::One();
  for (size_t i = 0; i < batch.commitments.size(); ++i) {
    claim->commitments.push_back(batch.commitments[i].point);
    claim->scalars.push_back(vi);
    claim->y_star += batch.evals[i] * vi;
    vi *= v;
  }
  return Status::Ok();
}

// sum_j weights[j]·(C*_j - y*_j·G - (tau - z_j)·W_j) over `count` claims, as
// one MSM over every distinct commitment, G and every W. A commitment that
// several claims open — a column queried at two rotations, a verifying-key
// column shared by many proofs — enters the MSM once with its scalars summed.
G1 WeightedResidual(const KzgOpeningClaim* claims, const Fr* weights, size_t count,
                    const Fr& tau) {
  using PointKey = std::array<uint8_t, G1Affine::kCompressedSize>;
  struct PointKeyHash {
    size_t operator()(const PointKey& k) const {
      uint64_t h = 0;
      std::memcpy(&h, k.data() + 1, sizeof(h));  // low bytes of x
      return static_cast<size_t>(h);
    }
  };
  std::unordered_map<PointKey, size_t, PointKeyHash> slot;
  std::vector<G1Affine> bases;
  std::vector<Fr> scalars;
  const auto add = [&](const G1Affine& p, const Fr& scalar) {
    const auto [it, inserted] = slot.try_emplace(p.Serialize(), bases.size());
    if (inserted) {
      bases.push_back(p);
      scalars.push_back(scalar);
    } else {
      scalars[it->second] += scalar;
    }
  };
  Fr y_acc = Fr::Zero();
  for (size_t j = 0; j < count; ++j) {
    const KzgOpeningClaim& c = claims[j];
    for (size_t i = 0; i < c.commitments.size(); ++i) {
      add(c.commitments[i], weights[j] * c.scalars[i]);
    }
    add(c.w, weights[j] * (c.point - tau));
    y_acc += weights[j] * c.y_star;
  }
  add(G1Affine::Generator(), y_acc.Neg());
  return Msm(bases, scalars);
}

}  // namespace

Status KzgPcs::VerifyOpenings(const std::vector<PcsOpeningBatch>& batches,
                              Transcript* transcript, const std::vector<uint8_t>& proof,
                              size_t* offset) const {
  obs::Span span("kzg-verify-openings");
  static obs::Counter& verifies = obs::MetricsRegistry::Global().counter("pcs.kzg.verify_batches");
  KzgAccumulator local;
  KzgAccumulator& claims = defer_ != nullptr ? *defer_ : local;
  for (size_t b = 0; b < batches.size(); ++b) {
    verifies.Increment();
    KzgOpeningClaim claim;
    if (Status s = ReadClaim(batches[b], transcript, proof, offset, &claim); !s.ok()) {
      return Status(s.code(), batches[b].what + ": " + s.message());
    }
    // A local accumulator tags claims by batch so a rejection names the
    // batch; a deferred one keeps the caller's tag (its proof index).
    if (defer_ == nullptr) {
      local.SetTag(b);
    }
    claims.Add(std::move(claim));
  }
  if (defer_ != nullptr) {
    return Status::Ok();
  }
  std::vector<size_t> blamed;
  const Status status = local.Check(*setup_, &blamed);
  if (status.ok() || blamed.empty()) {
    return status;
  }
  const PcsOpeningBatch& bad = batches[blamed.front()];
  return VerifyFailedError(bad.what + ": kzg: opening equation C* - y*G != (tau - z)W for batch of " +
                           std::to_string(bad.commitments.size()) + " commitments");
}

Status KzgAccumulator::Check(const KzgSetup& setup, std::vector<size_t>* blamed_tags) const {
  obs::Span span("kzg-aggregate-check");
  static obs::Counter& pairings =
      obs::MetricsRegistry::Global().counter("pcs.kzg.pairing_checks");
  if (claims_.empty()) {
    return InvalidArgumentError("kzg aggregate: no opening claims to check");
  }
  // The RLC challenge is bound to every term being combined, so an attacker
  // cannot craft two bad claims that cancel.
  Transcript transcript("zkml-kzg-aggregate");
  for (const KzgOpeningClaim& c : claims_) {
    for (size_t i = 0; i < c.commitments.size(); ++i) {
      transcript.AppendPoint("agg-c", c.commitments[i]);
      transcript.AppendFr("agg-v", c.scalars[i]);
    }
    transcript.AppendFr("agg-y", c.y_star);
    transcript.AppendPoint("agg-w", c.w);
    transcript.AppendFr("agg-z", c.point);
  }
  const Fr r = transcript.ChallengeFr("kzg-aggregate-r");
  std::vector<Fr> rj(claims_.size());
  rj[0] = Fr::One();
  for (size_t j = 1; j < rj.size(); ++j) {
    rj[j] = rj[j - 1] * r;
  }
  pairings.Increment();
  if (WeightedResidual(claims_.data(), rj.data(), claims_.size(), setup.tau).IsIdentity()) {
    return Status::Ok();
  }
  // Rejection path: re-check each claim on its own to name the proofs whose
  // openings are bad. These per-claim checks only run after the single
  // aggregate check has already failed.
  std::vector<size_t> bad;
  const Fr one = Fr::One();
  for (const KzgOpeningClaim& c : claims_) {
    pairings.Increment();
    if (!WeightedResidual(&c, &one, 1, setup.tau).IsIdentity() &&
        (bad.empty() || bad.back() != c.tag)) {
      bad.push_back(c.tag);
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
                             std::to_string(claims_.size()) +
                             " opening claims (no individual claim blamed)");
  }
  return VerifyFailedError("kzg aggregate: combined pairing check failed across " +
                           std::to_string(claims_.size()) +
                           " opening claims; blamed proof(s): " + who);
}

}  // namespace zkml
