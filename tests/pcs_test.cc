#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "src/base/rng.h"
#include "src/obs/metrics.h"
#include "src/pcs/ipa.h"
#include "src/pcs/kzg.h"
#include "src/poly/polynomial.h"

namespace zkml {
namespace {

std::vector<Fr> RandomCoeffs(Rng& rng, size_t n) {
  std::vector<Fr> c(n);
  for (Fr& x : c) {
    x = Fr::Random(rng);
  }
  return c;
}

// Commits a polynomial given by its coefficients: one FFT to the setup's
// domain, then the Lagrange commit.
PcsCommitment CommitCoeffs(const Pcs& pcs, const std::vector<Fr>& coeffs) {
  return pcs.CommitLagrange(pcs.domain()->FftFromCoeffs(coeffs));
}

// The commitment to `evals` by definition, without the basis cache, its
// tables or the batch: [p(tau)]G for KZG, p the interpolant of `evals`,
// taken by the full-scalar windowed loop; sum_i evals[i]·g_i for IPA.
G1Affine ReferenceCommit(const Pcs& pcs, const std::vector<Fr>& evals) {
  if (const auto* kzg = dynamic_cast<const KzgPcs*>(&pcs)) {
    const Fr p_tau = Poly(pcs.domain()->IfftToCoeffs(evals)).Evaluate(kzg->setup().tau);
    return internal::ScalarMulWindowed(G1::Generator(), p_tau).ToAffine();
  }
  return Msm(dynamic_cast<const IpaPcs&>(pcs).setup().g, evals).ToAffine();
}

// Verifies a single opening batch.
Status VerifyOne(const Pcs& pcs, std::vector<PcsCommitment> commitments, std::vector<Fr> evals,
                 const Fr& point, Transcript* transcript, const std::vector<uint8_t>& proof,
                 size_t* offset) {
  return pcs.VerifyOpenings({{std::move(commitments), std::move(evals), point, "batch"}},
                            transcript, proof, offset);
}

class PcsTest : public ::testing::TestWithParam<PcsKind> {
 protected:
  static constexpr size_t kN = 64;

  std::unique_ptr<Pcs> MakePcs(size_t n = kN) {
    if (GetParam() == PcsKind::kKzg) {
      return std::make_unique<KzgPcs>(std::make_shared<KzgSetup>(KzgSetup::Create(n, 7)));
    }
    return std::make_unique<IpaPcs>(std::make_shared<IpaSetup>(IpaSetup::Create(n, 7)));
  }
};

TEST_P(PcsTest, CommitIsDeterministicAndBinding) {
  auto pcs = MakePcs();
  Rng rng(1);
  auto a = RandomCoeffs(rng, kN);
  auto b = RandomCoeffs(rng, kN);
  EXPECT_EQ(pcs->CommitLagrange(a), pcs->CommitLagrange(a));
  EXPECT_FALSE(pcs->CommitLagrange(a) == pcs->CommitLagrange(b));
}

// A batched commit fans its MSMs out over the pool; every commitment must
// still equal, byte for byte, the one a lone call produces and the
// definition's. 2^9 stays below the MSM's own parallel threshold, 2^11 nests
// a parallel MSM inside each batch task.
TEST_P(PcsTest, BatchedCommitsEqualOneAtATime) {
  Rng rng(12);
  for (const auto& [count, log_n] : {std::pair<size_t, int>{0, 9}, {1, 9}, {30, 9}, {3, 11}}) {
    SCOPED_TRACE(std::to_string(count) + " x 2^" + std::to_string(log_n));
    auto pcs = MakePcs(size_t{1} << log_n);
    std::vector<std::vector<Fr>> evals(count);
    for (std::vector<Fr>& e : evals) {
      e = RandomCoeffs(rng, size_t{1} << log_n);
    }
    const std::vector<PcsCommitment> batched = pcs->CommitLagrange(PolyPointers(evals));
    ASSERT_EQ(batched.size(), count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(batched[i].point.Serialize(), ReferenceCommit(*pcs, evals[i]).Serialize())
          << "commit " << i;
      EXPECT_EQ(batched[i].point.Serialize(), pcs->CommitLagrange(evals[i]).point.Serialize())
          << "commit " << i;
    }
  }
}

// A setup below the MSM's parallel threshold commits through the fixed-base
// table of its one basis: every commitment must equal the bare Msm() of its
// vector against LagrangeBasis() and the definition's, sparse vectors and
// all-(r-1) included, and the Pcs keeps exactly one table.
TEST_P(PcsTest, TableCommitsEqualBareMsm) {
  const obs::Counter& tables =
      obs::MetricsRegistry::Global().counter("pcs.fixed_base_table_builds");
  const uint64_t before = tables.Value();
  constexpr size_t kTableN = 512;
  auto pcs = MakePcs(kTableN);
  Rng rng(14);
  std::vector<std::vector<Fr>> evals;
  for (size_t nonzero : {size_t{0}, size_t{1}, size_t{31}, size_t{511}, kTableN}) {
    std::vector<Fr> e(kTableN, Fr::Zero());
    for (size_t i = 0; i < nonzero; ++i) {
      e[i] = Fr::Random(rng);
    }
    evals.push_back(std::move(e));
  }
  evals.push_back(std::vector<Fr>(kTableN, Fr::Zero() - Fr::One()));
  const std::vector<PcsCommitment> batched = pcs->CommitLagrange(PolyPointers(evals));
  const std::vector<G1Affine> basis = pcs->LagrangeBasis(*pcs->domain());
  ASSERT_EQ(basis.size(), kTableN);
  for (size_t i = 0; i < evals.size(); ++i) {
    const G1Affine msm = Msm(basis, evals[i]).ToAffine();
    EXPECT_EQ(batched[i].point.Serialize(), msm.Serialize()) << "commit " << i;
    EXPECT_EQ(pcs->CommitLagrange(evals[i]).point.Serialize(), msm.Serialize())
        << "lone commit " << i;
    EXPECT_EQ(ReferenceCommit(*pcs, evals[i]).Serialize(), msm.Serialize())
        << "reference " << i;
  }
  EXPECT_EQ(tables.Value() - before, 1u);
}

TEST_P(PcsTest, SingleOpenVerifies) {
  auto pcs = MakePcs();
  Rng rng(2);
  auto coeffs = RandomCoeffs(rng, 48);
  const Fr z = Fr::Random(rng);
  const Fr y = Poly(coeffs).Evaluate(z);
  const PcsCommitment c = CommitCoeffs(*pcs, coeffs);

  Transcript pt("pcs-test");
  pt.AppendFr("y", y);
  std::vector<uint8_t> proof;
  pcs->OpenBatch({&coeffs}, z, &pt, &proof);

  Transcript vt("pcs-test");
  vt.AppendFr("y", y);
  size_t offset = 0;
  const Status s = VerifyOne(*pcs, {c}, {y}, z, &vt, proof, &offset);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(offset, proof.size());
}

// At a domain point omega^j the Lagrange coefficients are the unit vector
// e_j and the opening still verifies.
TEST_P(PcsTest, OpenAtDomainPointVerifies) {
  auto pcs = MakePcs();
  Rng rng(11);
  auto coeffs = RandomCoeffs(rng, kN);
  const Fr z = pcs->domain()->element(5);
  const Fr y = Poly(coeffs).Evaluate(z);
  const PcsCommitment c = CommitCoeffs(*pcs, coeffs);

  Transcript pt("pcs-test");
  pt.AppendFr("y", y);
  std::vector<uint8_t> proof;
  pcs->OpenBatch({&coeffs}, z, &pt, &proof);

  Transcript vt("pcs-test");
  vt.AppendFr("y", y);
  size_t offset = 0;
  const Status s = VerifyOne(*pcs, {c}, {y}, z, &vt, proof, &offset);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_P(PcsTest, BatchOpenVerifies) {
  auto pcs = MakePcs();
  Rng rng(3);
  std::vector<std::vector<Fr>> polys;
  polys.push_back(RandomCoeffs(rng, 64));
  polys.push_back(RandomCoeffs(rng, 17));
  polys.push_back(RandomCoeffs(rng, 1));
  const Fr z = Fr::Random(rng);

  std::vector<PcsCommitment> cs;
  std::vector<Fr> ys;
  std::vector<const std::vector<Fr>*> ptrs;
  for (const auto& p : polys) {
    cs.push_back(CommitCoeffs(*pcs, p));
    ys.push_back(Poly(p).Evaluate(z));
    ptrs.push_back(&p);
  }

  Transcript pt("pcs-test");
  for (const Fr& y : ys) {
    pt.AppendFr("y", y);
  }
  std::vector<uint8_t> proof;
  pcs->OpenBatch(ptrs, z, &pt, &proof);

  Transcript vt("pcs-test");
  for (const Fr& y : ys) {
    vt.AppendFr("y", y);
  }
  size_t offset = 0;
  const Status s = VerifyOne(*pcs, cs, ys, z, &vt, proof, &offset);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_P(PcsTest, WrongEvaluationRejected) {
  auto pcs = MakePcs();
  Rng rng(4);
  auto coeffs = RandomCoeffs(rng, 32);
  const Fr z = Fr::Random(rng);
  const Fr y = Poly(coeffs).Evaluate(z);
  const Fr y_bad = y + Fr::One();
  const PcsCommitment c = CommitCoeffs(*pcs, coeffs);

  Transcript pt("pcs-test");
  pt.AppendFr("y", y);
  std::vector<uint8_t> proof;
  pcs->OpenBatch({&coeffs}, z, &pt, &proof);

  Transcript vt("pcs-test");
  vt.AppendFr("y", y);
  size_t offset = 0;
  const Status s = VerifyOne(*pcs, {c}, {y_bad}, z, &vt, proof, &offset);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kVerifyFailed) << s.ToString();
}

TEST_P(PcsTest, WrongCommitmentRejected) {
  auto pcs = MakePcs();
  Rng rng(5);
  auto coeffs = RandomCoeffs(rng, 32);
  auto other = RandomCoeffs(rng, 32);
  const Fr z = Fr::Random(rng);
  const Fr y = Poly(coeffs).Evaluate(z);

  Transcript pt("pcs-test");
  pt.AppendFr("y", y);
  std::vector<uint8_t> proof;
  pcs->OpenBatch({&coeffs}, z, &pt, &proof);

  Transcript vt("pcs-test");
  vt.AppendFr("y", y);
  size_t offset = 0;
  EXPECT_FALSE(VerifyOne(*pcs, {CommitCoeffs(*pcs, other)}, {y}, z, &vt, proof, &offset).ok());
}

TEST_P(PcsTest, CorruptedProofRejected) {
  auto pcs = MakePcs();
  Rng rng(6);
  auto coeffs = RandomCoeffs(rng, 32);
  const Fr z = Fr::Random(rng);
  const Fr y = Poly(coeffs).Evaluate(z);
  const PcsCommitment c = CommitCoeffs(*pcs, coeffs);

  Transcript pt("pcs-test");
  pt.AppendFr("y", y);
  std::vector<uint8_t> proof;
  pcs->OpenBatch({&coeffs}, z, &pt, &proof);

  // Flip a byte somewhere in the middle.
  proof[proof.size() / 2] ^= 0x40;
  Transcript vt("pcs-test");
  vt.AppendFr("y", y);
  size_t offset = 0;
  EXPECT_FALSE(VerifyOne(*pcs, {c}, {y}, z, &vt, proof, &offset).ok());
}

TEST_P(PcsTest, TruncatedProofRejected) {
  auto pcs = MakePcs();
  Rng rng(7);
  auto coeffs = RandomCoeffs(rng, 16);
  const Fr z = Fr::Random(rng);
  const Fr y = Poly(coeffs).Evaluate(z);
  const PcsCommitment c = CommitCoeffs(*pcs, coeffs);

  Transcript pt("pcs-test");
  std::vector<uint8_t> proof;
  pcs->OpenBatch({&coeffs}, z, &pt, &proof);
  proof.resize(proof.size() / 2);

  Transcript vt("pcs-test");
  size_t offset = 0;
  const Status s = VerifyOne(*pcs, {c}, {y}, z, &vt, proof, &offset);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kMalformedProof) << s.ToString();
}

INSTANTIATE_TEST_SUITE_P(Backends, PcsTest, ::testing::Values(PcsKind::kKzg, PcsKind::kIpa),
                         [](const ::testing::TestParamInfo<PcsKind>& info) {
                           return info.param == PcsKind::kKzg ? "Kzg" : "Ipa";
                         });

TEST(KzgTest, ProofIsOnePoint) {
  auto setup = std::make_shared<KzgSetup>(KzgSetup::Create(64, 9));
  KzgPcs pcs(setup);
  Rng rng(8);
  auto coeffs = RandomCoeffs(rng, 64);
  Transcript pt("sz");
  std::vector<uint8_t> proof;
  pcs.OpenBatch({&coeffs}, Fr::Random(rng), &pt, &proof);
  EXPECT_EQ(proof.size(), 33u);
}

// A one-term claim that opens C = ((tau - z)·a + y)·G to y at z with witness
// W = a·G, except that y* is off by `error`: its residual
// C* - y*·G - (tau - z)·W is -error·G.
KzgOpeningClaim ClaimWithError(const KzgSetup& setup, Rng& rng, const Fr& error) {
  const Fr a = Fr::Random(rng);
  const Fr y = Fr::Random(rng);
  KzgOpeningClaim claim;
  claim.point = Fr::Random(rng);
  claim.commitments = {G1::Generator().ScalarMul((setup.tau - claim.point) * a + y).ToAffine()};
  claim.scalars = {Fr::One()};
  claim.y_star = y + error;
  claim.w = G1::Generator().ScalarMul(a).ToAffine();
  return claim;
}

TEST(KzgAccumulatorTest, HonestClaimsPass) {
  const KzgSetup setup = KzgSetup::Create(4, 11);
  Rng rng(13);
  KzgAccumulator acc;
  for (size_t tag = 0; tag < 3; ++tag) {
    acc.SetTag(tag);
    acc.Add(ClaimWithError(setup, rng, Fr::Zero()));
  }
  const Status s = acc.Check(setup);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// Residuals -G and +G sum to the identity, so an unweighted sum (r = 1) would
// accept both claims; the transcript-drawn r must not, and the per-claim
// re-check blames both.
TEST(KzgAccumulatorTest, ErrorsThatCancelAtROneAreRejected) {
  const KzgSetup setup = KzgSetup::Create(4, 11);
  Rng rng(14);
  KzgAccumulator acc;
  acc.SetTag(3);
  acc.Add(ClaimWithError(setup, rng, Fr::One()));
  acc.SetTag(7);
  acc.Add(ClaimWithError(setup, rng, Fr::One().Neg()));
  std::vector<size_t> blamed;
  const Status s = acc.Check(setup, &blamed);
  EXPECT_EQ(s.code(), StatusCode::kVerifyFailed) << s.ToString();
  EXPECT_EQ(blamed, (std::vector<size_t>{3, 7}));
  EXPECT_NE(s.message().find("blamed proof(s): 3,7"), std::string::npos) << s.ToString();
}

TEST(IpaTest, ProofIsLogarithmic) {
  auto setup = std::make_shared<IpaSetup>(IpaSetup::Create(64, 9));
  IpaPcs pcs(setup);
  Rng rng(9);
  auto coeffs = RandomCoeffs(rng, 64);
  Transcript pt("sz");
  std::vector<uint8_t> proof;
  pcs.OpenBatch({&coeffs}, Fr::Random(rng), &pt, &proof);
  // 6 rounds * 2 points * 33 bytes + 32-byte scalar; the setup fixes the
  // vector length, so the proof does not carry it.
  EXPECT_EQ(proof.size(), 6u * 2u * 33u + 32u);
}

// Lagrange-native Pedersen bases make the domain size part of what a
// commitment means: size-16 and size-32 setups from one seed share their
// first 16 bases, so one point C commits to the size-16 interpolant p16 of e
// and to the size-32 interpolant p32 of (e, 0, ..., 0), two polynomials. An
// opening the size-32 setup builds for p32 must not convince the size-16
// verifier, and the rejection names the batch.
TEST(IpaTest, OpeningFromSetupOfAnotherSizeRejected) {
  const IpaPcs small(std::make_shared<IpaSetup>(IpaSetup::Create(16, 9)));
  const IpaPcs large(std::make_shared<IpaSetup>(IpaSetup::Create(32, 9)));
  Rng rng(10);
  const std::vector<Fr> e = RandomCoeffs(rng, 16);
  std::vector<Fr> e_padded = e;
  e_padded.resize(32, Fr::Zero());
  const PcsCommitment c = small.CommitLagrange(e);
  ASSERT_EQ(c, large.CommitLagrange(e_padded));

  const std::vector<Fr> p16 = small.domain()->IfftToCoeffs(e);
  const std::vector<Fr> p32 = large.domain()->IfftToCoeffs(e_padded);
  const Fr z = Fr::Random(rng);
  const Fr y16 = Poly(p16).Evaluate(z);
  const Fr y32 = Poly(p32).Evaluate(z);
  ASSERT_NE(y16, y32);

  for (const auto& [opener, poly, y] :
       {std::tuple<const IpaPcs*, const std::vector<Fr>*, Fr>{&small, &p16, y16},
        {&large, &p32, y32}}) {
    Transcript pt("pcs-test");
    pt.AppendFr("y", y);
    std::vector<uint8_t> proof;
    opener->OpenBatch({poly}, z, &pt, &proof);
    Transcript vt("pcs-test");
    vt.AppendFr("y", y);
    size_t offset = 0;
    const Status s = VerifyOne(small, {c}, {y}, z, &vt, proof, &offset);
    if (opener == &small) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(offset, proof.size());
    } else {
      ASSERT_FALSE(s.ok()) << "size-16 verifier accepted a size-32 opening";
      EXPECT_TRUE(s.code() == StatusCode::kVerifyFailed || s.code() == StatusCode::kMalformedProof)
          << s.ToString();
      EXPECT_EQ(s.message().rfind("batch: ", 0), 0u) << s.ToString();
    }
  }
}

}  // namespace
}  // namespace zkml
