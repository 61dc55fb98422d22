#include "src/pcs/ipa.h"

#include <bit>

#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/plonk/proof_io.h"

namespace zkml {

IpaSetup IpaSetup::Create(size_t n, uint64_t seed) {
  ZKML_CHECK_MSG(std::has_single_bit(n), "IPA setup size must be a power of two");
  IpaSetup setup;
  std::vector<G1Affine> pts = DeriveGenerators(seed, n + 1);
  setup.u = pts.back();
  pts.pop_back();
  setup.g = std::move(pts);
  return setup;
}

void IpaPcs::OpenBatch(const std::vector<const std::vector<Fr>*>& polys, const Fr& point,
                       Transcript* transcript, std::vector<uint8_t>* proof_out) const {
  obs::Span span("ipa-open-batch");
  static obs::Counter& opens = obs::MetricsRegistry::Global().counter("pcs.ipa.open_batches");
  opens.Increment();
  ZKML_CHECK(!polys.empty());
  const Fr v = transcript->ChallengeFr("ipa-batch-v");
  const size_t n = size();
  std::vector<Fr> combined(n, Fr::Zero());
  Fr vi = Fr::One();
  for (const auto* p : polys) {
    ZKML_CHECK_MSG(p->size() <= n, "polynomial exceeds commitment setup");
    for (size_t i = 0; i < p->size(); ++i) {
      combined[i] += (*p)[i] * vi;
    }
    vi *= v;
  }
  // The argument runs on evaluations, the form the polynomials were
  // committed in: a is the combined polynomial over the domain and
  // b_i = L_i(z), so the claim is <a, b> = y.
  std::vector<Fr> a = domain()->FftFromCoeffs(combined);
  std::vector<Fr> b = domain()->LagrangeCoefficients(point);

  std::vector<G1Affine> g = setup_->g;
  const G1 u = G1::FromAffine(setup_->u);

  size_t len = n;
  while (len > 1) {
    const size_t half = len / 2;
    // The lo/hi halves are just index ranges of a and g; the cross terms and
    // the L/R MSMs read them before the fold overwrites anything.
    Fr cross_l = Fr::Zero();
    Fr cross_r = Fr::Zero();
    for (size_t i = 0; i < half; ++i) {
      cross_l += a[i] * b[half + i];
      cross_r += a[half + i] * b[i];
    }
    // L and R are independent MSMs over disjoint halves: run them together.
    G1 lr[2];
    {
      TaskGroup group;
      group.Submit([&] { lr[0] = Msm(g.data() + half, a.data(), half) + u.ScalarMul(cross_l); });
      group.Submit([&] { lr[1] = Msm(g.data(), a.data() + half, half) + u.ScalarMul(cross_r); });
    }
    G1Affine lr_affine[2];
    G1::BatchToAffine(lr, 2, lr_affine);
    const G1Affine& l = lr_affine[0];
    const G1Affine& r = lr_affine[1];
    transcript->AppendPoint("ipa-l", l);
    transcript->AppendPoint("ipa-r", r);
    ProofAppendPoint(proof_out, l);
    ProofAppendPoint(proof_out, r);

    const Fr ch = transcript->ChallengeFr("ipa-u");
    const Fr ch_inv = ch.Inverse();

    // Fold in place: a' = a_lo*ch + a_hi*ch_inv; b' = b_lo*ch_inv + b_hi*ch;
    // g' = g_lo*ch_inv + g_hi*ch. Slot i is read before it is written and the
    // hi half is only read, so no copies are needed.
    for (size_t i = 0; i < half; ++i) {
      a[i] = a[i] * ch + a[half + i] * ch_inv;
      b[i] = b[i] * ch_inv + b[half + i] * ch;
    }
    // Each folded generator costs two scalar multiplications, so the round
    // is split into per-thread chunks at any size (ParallelForHeavy; a round
    // folds a few hundred generators, which ParallelFor would run serially).
    // The results then share one field inversion. The last round's g' is
    // never read.
    if (half > 1) {
      std::vector<G1> folded(half);
      ParallelForHeavy(0, half, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          folded[i] = G1::FromAffine(g[i]).ScalarMul(ch_inv) +
                      G1::FromAffine(g[half + i]).ScalarMul(ch);
        }
      });
      G1::BatchToAffine(folded.data(), half, g.data());
    }
    len = half;
  }
  transcript->AppendFr("ipa-a", a[0]);
  ProofAppendFr(proof_out, a[0]);
}

namespace {

// Checks one opening batch. With the round challenges ch_j, the folded
// generator weights s and the final scalar a, the prover's argument holds iff
//   sum_i v^i·C_i + sum_j (ch_j^2·L_j + ch_j^-2·R_j) + (y* - a·b)·U
//     - sum_i a·s_i·G_i == 0,
// checked as ONE MSM over C ∪ L ∪ R ∪ {U} ∪ G.
Status VerifyIpaBatch(const IpaSetup& setup, const EvaluationDomain& domain,
                      const PcsOpeningBatch& batch, Transcript* transcript,
                      const std::vector<uint8_t>& proof, size_t* offset) {
  ZKML_RETURN_IF_ERROR(CheckOpeningBatchShape(batch, "ipa"));
  const Fr v = transcript->ChallengeFr("ipa-batch-v");
  const size_t n = setup.g.size();
  const int rounds = std::countr_zero(n);

  const size_t num_c = batch.commitments.size();
  std::vector<G1Affine> bases;
  std::vector<Fr> scalars;
  bases.reserve(num_c + 2 * rounds + 1 + n);
  scalars.reserve(bases.capacity());
  // The batch claim: sum v^i C_i with y* = sum v^i y_i.
  Fr y_star = Fr::Zero();
  Fr vi = Fr::One();
  for (size_t i = 0; i < num_c; ++i) {
    bases.push_back(batch.commitments[i].point);
    scalars.push_back(vi);
    y_star += batch.evals[i] * vi;
    vi *= v;
  }

  std::vector<Fr> challenges(rounds);
  std::vector<Fr> challenge_invs(rounds);
  for (int j = 0; j < rounds; ++j) {
    G1Affine l, r;
    const std::string round = "ipa round " + std::to_string(j);
    ZKML_RETURN_IF_ERROR(ProofReadPoint(proof, offset, &l, (round + " L point").c_str()));
    ZKML_RETURN_IF_ERROR(ProofReadPoint(proof, offset, &r, (round + " R point").c_str()));
    transcript->AppendPoint("ipa-l", l);
    transcript->AppendPoint("ipa-r", r);
    challenges[j] = transcript->ChallengeFr("ipa-u");
    challenge_invs[j] = challenges[j].Inverse();
    bases.push_back(l);
    scalars.push_back(challenges[j].Square());
    bases.push_back(r);
    scalars.push_back(challenge_invs[j].Square());
  }
  Fr a_final;
  ZKML_RETURN_IF_ERROR(ProofReadFr(proof, offset, &a_final, "ipa final scalar"));
  transcript->AppendFr("ipa-a", a_final);

  // s_i = prod over rounds of ch_j if bit (rounds-1-j) of i is set, else
  // ch_j^-1: round j folds blocks of size n >> j, whose upper half takes the
  // ch factor. Built by doubling, one round (one lower index bit) at a time.
  std::vector<Fr> s(n);
  s[0] = Fr::One();
  for (int j = 0; j < rounds; ++j) {
    for (size_t i = size_t{1} << j; i-- > 0;) {
      s[2 * i + 1] = s[i] * challenges[j];
      s[2 * i] = s[i] * challenge_invs[j];
    }
  }
  // b folds with the same orientation as G (see OpenBatch), so b_final uses
  // the same s vector: b_final = sum_i s_i * L_i(z).
  const std::vector<Fr> lagrange = domain.LagrangeCoefficients(batch.point);
  Fr b_final = Fr::Zero();
  for (size_t i = 0; i < n; ++i) {
    b_final += s[i] * lagrange[i];
  }

  bases.push_back(setup.u);
  scalars.push_back(y_star - a_final * b_final);
  const Fr neg_a = a_final.Neg();
  for (size_t i = 0; i < n; ++i) {
    bases.push_back(setup.g[i]);
    scalars.push_back(neg_a * s[i]);
  }
  if (!Msm(bases, scalars).IsIdentity()) {
    return VerifyFailedError("ipa: folded opening equation does not hold after " +
                             std::to_string(rounds) + " rounds (batch of " +
                             std::to_string(num_c) + " commitments)");
  }
  return Status::Ok();
}

}  // namespace

Status IpaPcs::VerifyOpenings(const std::vector<PcsOpeningBatch>& batches,
                              Transcript* transcript, const std::vector<uint8_t>& proof,
                              size_t* offset) const {
  obs::Span span("ipa-verify-openings");
  static obs::Counter& verifies = obs::MetricsRegistry::Global().counter("pcs.ipa.verify_batches");
  for (const PcsOpeningBatch& batch : batches) {
    verifies.Increment();
    if (Status s = VerifyIpaBatch(*setup_, *domain(), batch, transcript, proof, offset); !s.ok()) {
      return Status(s.code(), batch.what + ": " + s.message());
    }
  }
  return Status::Ok();
}

}  // namespace zkml
