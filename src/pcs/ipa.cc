#include "src/pcs/ipa.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/plonk/proof_io.h"

namespace zkml {
namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

IpaSetup IpaSetup::Create(size_t max_len, uint64_t seed) {
  const size_t n = NextPow2(max_len);
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
  size_t max_size = 1;
  for (const auto* p : polys) {
    max_size = std::max(max_size, p->size());
  }
  const size_t n = NextPow2(max_size);
  ZKML_CHECK(n <= setup_->g.size());

  std::vector<Fr> a(n, Fr::Zero());
  Fr vi = Fr::One();
  for (const auto* p : polys) {
    for (size_t i = 0; i < p->size(); ++i) {
      a[i] += (*p)[i] * vi;
    }
    vi *= v;
  }
  // b = (1, z, z^2, ...): the evaluation claim is <a, b> = y.
  std::vector<Fr> b(n);
  b[0] = Fr::One();
  for (size_t i = 1; i < n; ++i) {
    b[i] = b[i - 1] * point;
  }

  ProofAppendU32(proof_out, static_cast<uint32_t>(n));
  std::vector<G1Affine> g(setup_->g.begin(), setup_->g.begin() + n);
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
    const G1Affine l = (Msm(g.data() + half, a.data(), half) + u.ScalarMul(cross_l)).ToAffine();
    const G1Affine r = (Msm(g.data(), a.data() + half, half) + u.ScalarMul(cross_r)).ToAffine();
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
      g[i] = (G1::FromAffine(g[i]).ScalarMul(ch_inv) + G1::FromAffine(g[half + i]).ScalarMul(ch))
                 .ToAffine();
    }
    len = half;
  }
  transcript->AppendFr("ipa-a", a[0]);
  ProofAppendFr(proof_out, a[0]);
}

Status IpaPcs::VerifyBatch(const std::vector<PcsCommitment>& commitments,
                           const std::vector<Fr>& evals, const Fr& point, Transcript* transcript,
                           const std::vector<uint8_t>& proof, size_t* offset) const {
  obs::Span span("ipa-verify-batch");
  static obs::Counter& verifies = obs::MetricsRegistry::Global().counter("pcs.ipa.verify_batches");
  verifies.Increment();
  if (commitments.size() != evals.size()) {
    return InvalidArgumentError("ipa: " + std::to_string(commitments.size()) +
                                " commitments but " + std::to_string(evals.size()) +
                                " claimed evaluations");
  }
  if (commitments.empty()) {
    return InvalidArgumentError("ipa: empty opening batch");
  }
  const Fr v = transcript->ChallengeFr("ipa-batch-v");
  uint32_t n32 = 0;
  ZKML_RETURN_IF_ERROR(ProofReadU32(proof, offset, &n32, "ipa vector length"));
  const size_t n = n32;
  if (n == 0 || (n & (n - 1)) != 0) {
    return MalformedProofError("ipa: vector length " + std::to_string(n) +
                               " is not a nonzero power of two");
  }
  if (n > setup_->g.size()) {
    return MalformedProofError("ipa: vector length " + std::to_string(n) +
                               " exceeds setup size " + std::to_string(setup_->g.size()));
  }
  int rounds = 0;
  for (size_t t = n; t > 1; t >>= 1) {
    ++rounds;
  }

  // Fold the batch claim: P = sum v^i C_i + y*·U with y* = sum v^i y_i.
  G1 p_acc;
  Fr y_star = Fr::Zero();
  Fr vi = Fr::One();
  for (size_t i = 0; i < commitments.size(); ++i) {
    p_acc += G1::FromAffine(commitments[i].point).ScalarMul(vi);
    y_star += evals[i] * vi;
    vi *= v;
  }
  const G1 u = G1::FromAffine(setup_->u);
  p_acc += u.ScalarMul(y_star);

  std::vector<Fr> challenges(rounds);
  for (int j = 0; j < rounds; ++j) {
    G1Affine l, r;
    const std::string round = "ipa round " + std::to_string(j);
    ZKML_RETURN_IF_ERROR(ProofReadPoint(proof, offset, &l, (round + " L point").c_str()));
    ZKML_RETURN_IF_ERROR(ProofReadPoint(proof, offset, &r, (round + " R point").c_str()));
    transcript->AppendPoint("ipa-l", l);
    transcript->AppendPoint("ipa-r", r);
    const Fr ch = transcript->ChallengeFr("ipa-u");
    challenges[j] = ch;
    const Fr ch_inv = ch.Inverse();
    p_acc += G1::FromAffine(l).ScalarMul(ch.Square());
    p_acc += G1::FromAffine(r).ScalarMul(ch_inv.Square());
  }
  Fr a_final;
  ZKML_RETURN_IF_ERROR(ProofReadFr(proof, offset, &a_final, "ipa final scalar"));
  transcript->AppendFr("ipa-a", a_final);

  // s_i = prod over rounds of ch^{+1} if the round's bit of i is set else
  // ch^{-1}; G_final = <s, G>, b_final = <s^{-1}, b>.
  std::vector<Fr> s(n, Fr::One());
  for (int j = 0; j < rounds; ++j) {
    const Fr ch = challenges[j];
    const Fr ch_inv = ch.Inverse();
    // Round j folds blocks of size n >> j; indices in the upper half of a
    // block take the ch factor, the lower half ch^{-1}.
    const size_t block = n >> j;
    for (size_t i = 0; i < n; ++i) {
      const bool hi = (i % block) >= block / 2;
      s[i] *= hi ? ch : ch_inv;
    }
  }
  const G1 g_final = Msm(setup_->g.data(), s.data(), n);

  // b folds with the same orientation as G (see OpenBatch), so b_final uses
  // the same s vector: b_final = sum_i s_i * z^i.
  Fr b_final = Fr::Zero();
  Fr zi = Fr::One();
  for (size_t i = 0; i < n; ++i) {
    b_final += s[i] * zi;
    zi *= point;
  }

  const G1 lhs = g_final.ScalarMul(a_final) + u.ScalarMul(a_final * b_final);
  if (!(p_acc == lhs)) {
    return VerifyFailedError("ipa: folded opening equation does not hold after " +
                             std::to_string(rounds) + " rounds (batch of " +
                             std::to_string(commitments.size()) + " commitments)");
  }
  return Status::Ok();
}

}  // namespace zkml
