#include <gtest/gtest.h>

#include <memory>
#include <string>
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

// Verifies a single opening batch.
Status VerifyOne(const Pcs& pcs, std::vector<PcsCommitment> commitments, std::vector<Fr> evals,
                 const Fr& point, Transcript* transcript, const std::vector<uint8_t>& proof,
                 size_t* offset) {
  return pcs.VerifyOpenings({{std::move(commitments), std::move(evals), point, "batch"}},
                            transcript, proof, offset);
}

class PcsTest : public ::testing::TestWithParam<PcsKind> {
 protected:
  static constexpr size_t kMaxLen = 64;

  std::unique_ptr<Pcs> MakePcs(size_t max_len = kMaxLen) {
    if (GetParam() == PcsKind::kKzg) {
      return std::make_unique<KzgPcs>(std::make_shared<KzgSetup>(KzgSetup::Create(max_len, 7)));
    }
    return std::make_unique<IpaPcs>(std::make_shared<IpaSetup>(IpaSetup::Create(max_len, 7)));
  }
};

TEST_P(PcsTest, CommitIsDeterministicAndBinding) {
  auto pcs = MakePcs();
  Rng rng(1);
  auto a = RandomCoeffs(rng, 32);
  auto b = RandomCoeffs(rng, 32);
  EXPECT_EQ(pcs->Commit(a), pcs->Commit(a));
  EXPECT_FALSE(pcs->Commit(a) == pcs->Commit(b));
}

// A batched commit fans its MSMs out over the pool; every commitment must
// still equal, byte for byte, the one a lone call (and a bare Msm) produces.
// 2^9 stays below the MSM's own parallel threshold, 2^11 nests a parallel
// MSM inside each batch task.
TEST_P(PcsTest, BatchedCommitsEqualOneAtATime) {
  auto pcs = MakePcs(size_t{1} << 11);
  Rng rng(12);
  for (const auto& [count, log_n] : {std::pair<size_t, int>{0, 9}, {1, 9}, {30, 9}, {3, 11}}) {
    SCOPED_TRACE(std::to_string(count) + " x 2^" + std::to_string(log_n));
    std::vector<std::vector<Fr>> polys(count);
    for (std::vector<Fr>& p : polys) {
      p = RandomCoeffs(rng, size_t{1} << log_n);
    }
    const std::vector<PcsCommitment> batched = pcs->Commit(PolyPointers(polys));
    const std::vector<PcsCommitment> lagrange = pcs->CommitLagrange(PolyPointers(polys));
    ASSERT_EQ(batched.size(), count);
    ASSERT_EQ(lagrange.size(), count);
    for (size_t i = 0; i < count; ++i) {
      const G1Affine msm = Msm(pcs->bases().data(), polys[i].data(), polys[i].size()).ToAffine();
      EXPECT_EQ(batched[i].point.Serialize(), msm.Serialize()) << "commit " << i;
      EXPECT_EQ(batched[i].point.Serialize(), pcs->Commit(polys[i]).point.Serialize())
          << "commit " << i;
      EXPECT_EQ(lagrange[i].point.Serialize(), pcs->CommitLagrange(polys[i]).point.Serialize())
          << "lagrange commit " << i;
    }
  }
}

// A setup below the MSM's parallel threshold commits through fixed-base
// tables, monomial and Lagrange alike: every commitment must equal the bare
// Msm() of its vector, for vectors shorter than the table too, and each
// table is kept once however many commits use it.
TEST_P(PcsTest, TableCommitsEqualBareMsm) {
  const obs::Counter& tables =
      obs::MetricsRegistry::Global().counter("pcs.fixed_base_table_builds");
  const uint64_t before = tables.Value();
  auto pcs = MakePcs(512);
  Rng rng(14);
  std::vector<std::vector<Fr>> coeffs;
  for (size_t n : {size_t{1}, size_t{31}, size_t{511}, size_t{512}}) {
    coeffs.push_back(RandomCoeffs(rng, n));
  }
  coeffs.push_back(std::vector<Fr>(512, Fr::Zero() - Fr::One()));
  const std::vector<PcsCommitment> batched = pcs->Commit(PolyPointers(coeffs));
  for (size_t i = 0; i < coeffs.size(); ++i) {
    const G1 msm = Msm(pcs->bases().data(), coeffs[i].data(), coeffs[i].size());
    EXPECT_EQ(batched[i].point.Serialize(), msm.ToAffine().Serialize()) << "commit " << i;
    EXPECT_EQ(pcs->Commit(coeffs[i]).point.Serialize(), msm.ToAffine().Serialize())
        << "lone commit " << i;
  }
  for (size_t n : {size_t{1}, size_t{32}, size_t{512}}) {
    const std::vector<G1Affine> lagrange = LagrangeBasesFromMonomial(
        std::vector<G1Affine>(pcs->bases().begin(), pcs->bases().begin() + n));
    const std::vector<std::vector<Fr>> evals = {RandomCoeffs(rng, n), RandomCoeffs(rng, n)};
    const std::vector<PcsCommitment> committed = pcs->CommitLagrange(PolyPointers(evals));
    for (size_t i = 0; i < evals.size(); ++i) {
      EXPECT_EQ(committed[i].point.Serialize(), Msm(lagrange, evals[i]).ToAffine().Serialize())
          << "lagrange commit at n=" << n;
    }
  }
  // The monomial table, then one Lagrange table per size.
  EXPECT_EQ(tables.Value() - before, 4u);
}

TEST_P(PcsTest, SingleOpenVerifies) {
  auto pcs = MakePcs();
  Rng rng(2);
  auto coeffs = RandomCoeffs(rng, 48);
  const Fr z = Fr::Random(rng);
  const Fr y = Poly(coeffs).Evaluate(z);
  const PcsCommitment c = pcs->Commit(coeffs);

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
    cs.push_back(pcs->Commit(p));
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
  const PcsCommitment c = pcs->Commit(coeffs);

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
  EXPECT_FALSE(VerifyOne(*pcs, {pcs->Commit(other)}, {y}, z, &vt, proof, &offset).ok());
}

TEST_P(PcsTest, CorruptedProofRejected) {
  auto pcs = MakePcs();
  Rng rng(6);
  auto coeffs = RandomCoeffs(rng, 32);
  const Fr z = Fr::Random(rng);
  const Fr y = Poly(coeffs).Evaluate(z);
  const PcsCommitment c = pcs->Commit(coeffs);

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
  const PcsCommitment c = pcs->Commit(coeffs);

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

// Every power must be tau^i * G as the full-scalar windowed loop computes it;
// the sampled indices straddle chunk boundaries of the parallel build.
TEST(KzgTest, SetupPowersAreTauPowersOfG) {
  const KzgSetup setup = KzgSetup::Create(512, 21);
  ASSERT_EQ(setup.powers.size(), 512u);
  for (size_t i : {0, 1, 2, 127, 128, 255, 256, 300, 383, 384, 510, 511}) {
    const Fr tau_i = setup.tau.Pow(U256::FromU64(i));
    EXPECT_EQ(G1::FromAffine(setup.powers[i]),
              internal::ScalarMulWindowed(G1::Generator(), tau_i))
        << "i=" << i;
  }
}

// The Lagrange bases KZG forms from its trapdoor must be the G1 inverse FFT
// of its powers, byte for byte, at every size up to the whole setup.
TEST(KzgTest, LagrangeBasisFromTauEqualsFftOfPowers) {
  const KzgSetup setup = KzgSetup::Create(2048, 23);
  for (size_t n : {size_t{1}, size_t{2}, size_t{8}, size_t{64}, size_t{512}, size_t{2048}}) {
    const std::vector<G1Affine> fft = LagrangeBasesFromMonomial(
        std::vector<G1Affine>(setup.powers.begin(), setup.powers.begin() + n));
    const std::vector<G1Affine> direct = setup.LagrangeBasis(n);
    ASSERT_EQ(direct.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(direct[i].Serialize(), fft[i].Serialize()) << "n=" << n << " i=" << i;
    }
  }
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
  // 4 bytes size + 6 rounds * 2 points * 33 bytes + 32-byte scalar.
  EXPECT_EQ(proof.size(), 4u + 6u * 2u * 33u + 32u);
}

}  // namespace
}  // namespace zkml
