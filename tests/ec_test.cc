#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/ec/g1.h"
#include "src/ec/glv.h"

namespace zkml {
namespace {

TEST(G1Test, GeneratorOnCurve) {
  EXPECT_TRUE(G1Affine::Generator().IsOnCurve());
  EXPECT_TRUE(G1Affine::Identity().IsOnCurve());
}

TEST(G1Test, GroupLaws) {
  Rng rng(1);
  G1 g = G1::Generator();
  G1 a = g.ScalarMul(Fr::Random(rng));
  G1 b = g.ScalarMul(Fr::Random(rng));
  G1 c = g.ScalarMul(Fr::Random(rng));
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ(a + G1::Identity(), a);
  EXPECT_EQ(a + a.Neg(), G1::Identity());
  EXPECT_EQ(a.Double(), a + a);
}

TEST(G1Test, MixedAddMatchesFullAdd) {
  Rng rng(2);
  G1 a = G1::Generator().ScalarMul(Fr::Random(rng));
  G1 b = G1::Generator().ScalarMul(Fr::Random(rng));
  G1Affine b_aff = b.ToAffine();
  EXPECT_EQ(a.AddMixed(b_aff), a + b);
  EXPECT_EQ(G1::Identity().AddMixed(b_aff), b);
  EXPECT_EQ(a.AddMixed(G1Affine::Identity()), a);
  // Doubling path.
  EXPECT_EQ(b.AddMixed(b_aff), b.Double());
  // Cancellation path.
  EXPECT_EQ(b.Neg().AddMixed(b_aff), G1::Identity());
}

TEST(G1Test, ScalarMulLinearity) {
  Rng rng(3);
  Fr s = Fr::Random(rng);
  Fr t = Fr::Random(rng);
  G1 g = G1::Generator();
  EXPECT_EQ(g.ScalarMul(s) + g.ScalarMul(t), g.ScalarMul(s + t));
  EXPECT_EQ(g.ScalarMul(s).ScalarMul(t), g.ScalarMul(s * t));
  EXPECT_EQ(g.ScalarMul(Fr::Zero()), G1::Identity());
  EXPECT_EQ(g.ScalarMul(Fr::One()), g);
}

// The GLV ScalarMul must give the same group element as the full-scalar
// windowed loop on edge scalars (zero, small, r - 1, lambda and lambda^2,
// whose GLV halves are tiny, and powers of two near the half-length bound)
// and on random ones, for the identity, the generator and random points.
TEST(G1Test, ScalarMulMatchesWindowedReference) {
  const Glv& glv = Glv::Get();
  Rng rng(4);
  std::vector<G1> points = {G1::Identity(), G1::Generator()};
  for (int i = 0; i < 3; ++i) {
    points.push_back(internal::ScalarMulWindowed(G1::Generator(), Fr::Random(rng)));
  }
  U256 two128;
  two128.limbs[2] = 1;
  U256 two130;
  two130.limbs[2] = 4;
  std::vector<Fr> scalars = {Fr::Zero(),
                             Fr::One(),
                             Fr::FromU64(2),
                             Fr::Zero() - Fr::One(),
                             glv.lambda(),
                             glv.lambda() * glv.lambda(),
                             Fr::FromCanonical(two128),
                             Fr::FromCanonical(two130)};
  for (int i = 0; i < 200; ++i) {
    scalars.push_back(Fr::Random(rng));
  }
  for (size_t p = 0; p < points.size(); ++p) {
    for (size_t i = 0; i < scalars.size(); ++i) {
      EXPECT_EQ(points[p].ScalarMul(scalars[i]), internal::ScalarMulWindowed(points[p], scalars[i]))
          << "point " << p << ", scalar " << scalars[i].ToCanonical().ToHex();
    }
  }
}

TEST(G1Test, GroupOrderAnnihilates) {
  // [p]G == identity where p is the Fr modulus: multiply by p-1 and add G.
  U256 p_minus_1;
  SubU256(FrParams::Modulus(), U256::FromU64(1), &p_minus_1);
  G1 g = G1::Generator();
  G1 acc = g.ScalarMul(Fr::FromCanonical(p_minus_1).Neg().Neg());  // p-1 as field elt
  // Fr arithmetic reduces mod p, so instead mul by canonical p-1 directly:
  // ScalarMul uses the canonical form, and FromCanonical(p-1) keeps it.
  EXPECT_EQ(acc + g, G1::Identity());
}

TEST(G1Test, AffineRoundTrip) {
  Rng rng(4);
  for (int t = 0; t < 10; ++t) {
    G1 a = G1::Generator().ScalarMul(Fr::Random(rng));
    G1Affine aff = a.ToAffine();
    EXPECT_TRUE(aff.IsOnCurve());
    EXPECT_EQ(G1::FromAffine(aff), a);
  }
}

TEST(G1Test, SerializeRoundTrip) {
  Rng rng(5);
  for (int t = 0; t < 10; ++t) {
    G1Affine p = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
    auto bytes = p.Serialize();
    G1Affine back;
    ASSERT_TRUE(G1Affine::Deserialize(bytes.data(), &back));
    EXPECT_EQ(back, p);
  }
  auto id_bytes = G1Affine::Identity().Serialize();
  G1Affine back;
  ASSERT_TRUE(G1Affine::Deserialize(id_bytes.data(), &back));
  EXPECT_TRUE(back.infinity);
}

TEST(G1Test, DeserializeRejectsGarbage) {
  std::array<uint8_t, 33> bytes{};
  bytes[0] = 7;  // invalid flag
  G1Affine out;
  EXPECT_FALSE(G1Affine::Deserialize(bytes.data(), &out));
  bytes[0] = 2;
  for (int i = 1; i < 33; ++i) {
    bytes[i] = 0xff;  // x >= q
  }
  EXPECT_FALSE(G1Affine::Deserialize(bytes.data(), &out));
}

class MsmTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MsmTest, MatchesNaive) {
  const size_t n = GetParam();
  Rng rng(100 + n);
  std::vector<G1Affine> bases(n);
  std::vector<Fr> scalars(n);
  G1 expected;
  for (size_t i = 0; i < n; ++i) {
    bases[i] = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
    scalars[i] = Fr::Random(rng);
    expected += G1::FromAffine(bases[i]).ScalarMul(scalars[i]);
  }
  EXPECT_EQ(Msm(bases, scalars), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MsmTest, ::testing::Values(0, 1, 2, 31, 32, 33, 100, 257));

TEST(MsmTest, HandlesZeroAndOneScalars) {
  Rng rng(9);
  std::vector<G1Affine> bases(64);
  std::vector<Fr> scalars(64, Fr::Zero());
  for (auto& b : bases) {
    b = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
  }
  EXPECT_EQ(Msm(bases, scalars), G1::Identity());
  scalars[5] = Fr::One();
  EXPECT_EQ(Msm(bases, scalars), G1::FromAffine(bases[5]));
}

// Edge scalars stress the signed-digit recoding: 0 and 1 produce mostly-empty
// windows, r-1 = -1 exercises the carry chain through every window, and
// duplicated bases force long per-bucket affine-addition chains (including
// the p == q doubling case inside the batched-affine reducer).
TEST(MsmTest, EdgeScalarsAndDuplicateBases) {
  Rng rng(17);
  const Fr r_minus_1 = Fr::Zero() - Fr::One();
  const size_t n = 128;
  std::vector<G1Affine> bases(n);
  std::vector<Fr> scalars(n);
  const G1Affine dup = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
  for (size_t i = 0; i < n; ++i) {
    // Half the bases identical, the rest random.
    bases[i] = (i % 2 == 0) ? dup : G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
    switch (i % 4) {
      case 0: scalars[i] = Fr::Zero(); break;
      case 1: scalars[i] = Fr::One(); break;
      case 2: scalars[i] = r_minus_1; break;
      default: scalars[i] = Fr::Random(rng); break;
    }
  }
  // Duplicate scalars too, so buckets collide on identical points.
  scalars[7] = scalars[3];
  G1 expected;
  for (size_t i = 0; i < n; ++i) {
    expected += G1::FromAffine(bases[i]).ScalarMul(scalars[i]);
  }
  EXPECT_EQ(Msm(bases, scalars), expected);
}

// Sizes straddling the naive/Pippenger cutoff (n = 32) must agree with the
// naive sum on both sides of the branch.
TEST(MsmTest, CutoffStraddlingSizes) {
  for (size_t n : {size_t{30}, size_t{31}, size_t{32}, size_t{33}, size_t{34}, size_t{64}}) {
    Rng rng(200 + n);
    std::vector<G1Affine> bases(n);
    std::vector<Fr> scalars(n);
    G1 expected;
    for (size_t i = 0; i < n; ++i) {
      bases[i] = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
      scalars[i] = Fr::Random(rng);
      expected += G1::FromAffine(bases[i]).ScalarMul(scalars[i]);
    }
    EXPECT_EQ(Msm(bases.data(), scalars.data(), n), expected) << "n=" << n;
  }
}

// The point-range chunking axis must not change the result: run the internal
// implementation with several chunk counts (and window widths) and compare
// against the single-chunk answer.
TEST(MsmTest, ChunkedImplMatchesUnchunked) {
  const size_t n = 500;
  Rng rng(33);
  std::vector<G1Affine> bases(n);
  std::vector<Fr> scalars(n);
  for (size_t i = 0; i < n; ++i) {
    bases[i] = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
    scalars[i] = Fr::Random(rng);
  }
  for (int c : {4, 8, 12}) {
    const G1 ref = internal::MsmImpl(bases.data(), scalars.data(), n, c, 1);
    for (size_t chunks : {size_t{2}, size_t{3}, size_t{7}}) {
      EXPECT_EQ(internal::MsmImpl(bases.data(), scalars.data(), n, c, chunks), ref)
          << "c=" << c << " chunks=" << chunks;
    }
    EXPECT_EQ(ref, Msm(bases, scalars)) << "c=" << c;
  }
}

// Scalar shapes the fixed-base table must agree with Msm() on. "equal" gives
// every scalar the same digits, so each window's entries all land in one
// bucket chain; r - 1 carries through every signed digit.
std::vector<Fr> TableScalars(const std::string& shape, size_t n, Rng& rng) {
  std::vector<Fr> s(n, Fr::Zero());
  const Fr shared = Fr::Random(rng);
  for (size_t i = 0; i < n; ++i) {
    if (shape == "random") {
      s[i] = Fr::Random(rng);
    } else if (shape == "small") {
      const uint64_t mag = rng.NextU64() % (uint64_t{1} << 11);
      s[i] = (i % 2 == 0) ? Fr::FromU64(mag) : Fr::Zero() - Fr::FromU64(mag);
    } else if (shape == "r-1") {
      s[i] = Fr::Zero() - Fr::One();
    } else if (shape == "equal") {
      s[i] = shared;
    }
  }
  return s;
}

TEST(FixedBaseTableTest, MatchesMsmAcrossBasesScalarsAndLengths) {
  const size_t kTable = 512;
  Rng rng(401);
  // KZG-style powers tau^i * G, IPA-style derived generators, and the
  // generators again with one identity base.
  std::vector<G1Affine> powers(kTable);
  const Fr tau = Fr::Random(rng);
  Fr tau_i = Fr::One();
  for (G1Affine& p : powers) {
    p = G1::Generator().ScalarMul(tau_i).ToAffine();
    tau_i *= tau;
  }
  const std::vector<G1Affine> generators = DeriveGenerators(402, kTable);
  std::vector<G1Affine> with_identity = generators;
  with_identity[7] = G1Affine::Identity();
  const std::vector<std::pair<const char*, const std::vector<G1Affine>*>> bases_sets = {
      {"powers", &powers}, {"generators", &generators}, {"identity", &with_identity}};
  for (const auto& [name, bases] : bases_sets) {
    const FixedBaseTable table = FixedBaseTable::Build(bases->data(), kTable);
    ASSERT_EQ(table.size(), kTable);
    for (const char* shape : {"random", "zero", "small", "r-1", "equal"}) {
      for (size_t n : {size_t{1}, size_t{31}, size_t{511}, size_t{512}}) {
        const std::vector<Fr> scalars = TableScalars(shape, n, rng);
        EXPECT_EQ(table.Msm(scalars.data(), n), Msm(bases->data(), scalars.data(), n))
            << name << " " << shape << " n=" << n;
      }
    }
  }
}

// Tables smaller than a sub-range, and ones holding one base many times
// over, where +d/-d entries of the same point cancel inside a chain.
TEST(FixedBaseTableTest, SmallTablesAndRepeatedBases) {
  Rng rng(403);
  for (size_t n : {size_t{1}, size_t{2}, size_t{33}, size_t{300}}) {
    const std::vector<G1Affine> bases(n, G1::Generator().ToAffine());
    const FixedBaseTable table = FixedBaseTable::Build(bases.data(), n);
    std::vector<Fr> scalars(n);
    for (size_t i = 0; i < n; ++i) {
      scalars[i] = (i % 2 == 1) ? Fr::Zero() - scalars[i - 1] : Fr::Random(rng);
    }
    EXPECT_EQ(table.Msm(scalars.data(), n), Msm(bases.data(), scalars.data(), n)) << "n=" << n;
  }
  const FixedBaseTable empty = FixedBaseTable::Build(nullptr, 0);
  EXPECT_EQ(empty.Msm(nullptr, 0), G1::Identity());
}

// The G1 FFT must equal its definition L_j = sum_i (1/n) omega^{-ij} G_i,
// computed here for every j as one MSM.
TEST(LagrangeBasisTest, MatchesDefinition) {
  for (int k : {3, 6}) {
    const size_t n = static_cast<size_t>(1) << k;
    const std::vector<G1Affine> bases = DeriveGenerators(17, n);
    const std::vector<G1Affine> lagrange = LagrangeBasesFromMonomial(bases);
    ASSERT_EQ(lagrange.size(), n);
    const Fr omega_inv = FrRootOfUnity(k).Inverse();
    const Fr n_inv = Fr::FromU64(n).Inverse();
    for (size_t j = 0; j < n; ++j) {
      const Fr step = omega_inv.Pow(U256::FromU64(j));
      std::vector<Fr> m(n);
      Fr cur = n_inv;
      for (size_t i = 0; i < n; ++i) {
        m[i] = cur;
        cur *= step;
      }
      EXPECT_EQ(G1::FromAffine(lagrange[j]), Msm(bases, m)) << "n=" << n << " j=" << j;
    }
  }
}

// MulGenerator reads the fixed-base table of G; every product must equal the
// GLV scalar multiplication, at the scalars whose signed 8-bit digits sit at
// the edges (zero, the top of the range, a lone high bit) and at random ones.
TEST(MulGeneratorTest, MatchesScalarMul) {
  const Fr two = Fr::FromU64(2);
  const Fr r_minus_1 = Fr::Zero() - Fr::One();
  std::vector<Fr> scalars = {Fr::Zero(),          Fr::One(),    two,         r_minus_1,
                             Glv::Get().lambda(), two.Pow(128), two.Pow(253)};
  Rng rng(404);
  for (int i = 0; i < 200; ++i) {
    scalars.push_back(Fr::Random(rng));
  }
  const std::vector<G1Affine> got = MulGenerator(scalars);
  ASSERT_EQ(got.size(), scalars.size());
  for (size_t i = 0; i < scalars.size(); ++i) {
    EXPECT_EQ(got[i], G1::Generator().ScalarMul(scalars[i]).ToAffine()) << "i=" << i;
  }
  EXPECT_TRUE(got[0].infinity);
  EXPECT_EQ(internal::GeneratorTableBuilds(), 1u);
}

// Lengths that leave a short last chunk (and fewer scalars than chunks) must
// fill every slot; an empty vector gives an empty result.
TEST(MulGeneratorTest, EmptyAndUnevenLengths) {
  EXPECT_TRUE(MulGenerator({}).empty());
  Rng rng(405);
  for (size_t n : {size_t{1}, size_t{3}, size_t{37}, size_t{101}}) {
    std::vector<Fr> scalars(n);
    for (Fr& s : scalars) {
      s = Fr::Random(rng);
    }
    const std::vector<G1Affine> got = MulGenerator(scalars);
    ASSERT_EQ(got.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], G1::Generator().ScalarMul(scalars[i]).ToAffine())
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(DeriveGeneratorsTest, DeterministicAndOnCurve) {
  auto a = DeriveGenerators(42, 16);
  auto b = DeriveGenerators(42, 16);
  auto c = DeriveGenerators(43, 16);
  ASSERT_EQ(a.size(), 16u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].IsOnCurve());
    EXPECT_EQ(a[i], b[i]);
    EXPECT_FALSE(a[i] == c[i]);
    for (size_t j = 0; j < i; ++j) {
      EXPECT_FALSE(a[i] == a[j]);
    }
  }
}

Fr GlvSignedToFr(const U256& mag, bool neg) {
  const Fr f = Fr::FromCanonical(mag);
  return neg ? f.Neg() : f;
}

// Every decomposition must satisfy k == k1 + lambda*k2 (mod r) exactly, with
// both halves short enough for the MSM's halved window coverage.
TEST(GlvTest, DecompositionRecomposesAndIsShort) {
  const Glv& glv = Glv::Get();
  Rng rng(71);
  auto check = [&](const Fr& k) {
    const GlvDecomposed d = glv.Decompose(k);
    EXPECT_EQ(GlvSignedToFr(d.k1, d.k1_neg) + glv.lambda() * GlvSignedToFr(d.k2, d.k2_neg), k)
        << "k=" << k.ToCanonical().ToHex();
    EXPECT_LT(d.k1.HighestBit(), Glv::kGlvBits) << "k=" << k.ToCanonical().ToHex();
    EXPECT_LT(d.k2.HighestBit(), Glv::kGlvBits) << "k=" << k.ToCanonical().ToHex();
    // Sign-magnitude invariant: zero is never flagged negative.
    if (d.k1.IsZero()) {
      EXPECT_FALSE(d.k1_neg);
    }
    if (d.k2.IsZero()) {
      EXPECT_FALSE(d.k2_neg);
    }
  };
  // Edge cases: 0, 1, r-1, lambda itself (decomposes to (0, 1)-shaped
  // vectors), and values straddling the sign folds.
  check(Fr::Zero());
  check(Fr::One());
  check(Fr::Zero() - Fr::One());
  check(glv.lambda());
  check(glv.lambda().Neg());
  check(glv.lambda() + Fr::One());
  for (int trial = 0; trial < 500; ++trial) {
    check(Fr::Random(rng));
  }
}

// The endomorphism phi(x, y) = (beta*x, y) must act as scalar multiplication
// by lambda on arbitrary group elements, not just the generator it was
// calibrated against.
TEST(GlvTest, EndomorphismActsAsLambda) {
  const Glv& glv = Glv::Get();
  Rng rng(72);
  for (int trial = 0; trial < 8; ++trial) {
    const G1Affine p = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
    const G1Affine phi{glv.beta() * p.x, p.y, p.infinity};
    EXPECT_TRUE(phi.IsOnCurve());
    // Against the full-scalar loop: ScalarMul itself runs through phi.
    EXPECT_EQ(G1::FromAffine(phi), internal::ScalarMulWindowed(G1::FromAffine(p), glv.lambda()));
  }
}

// MSM straddling the serial-fallback threshold and exercising scalars whose
// GLV halves carry both signs must match the naive sum.
TEST(GlvTest, MsmMatchesNaiveAcrossScalarShapes) {
  const Glv& glv = Glv::Get();
  Rng rng(73);
  const size_t n = 64;
  std::vector<G1Affine> bases(n);
  std::vector<Fr> scalars(n);
  G1 expected;
  for (size_t i = 0; i < n; ++i) {
    bases[i] = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
    switch (i % 5) {
      case 0:
        scalars[i] = Fr::Random(rng);
        break;
      case 1:
        scalars[i] = Fr::Zero() - Fr::Random(rng);
        break;
      case 2:
        scalars[i] = glv.lambda() * Fr::FromU64(i + 1);
        break;
      case 3:
        scalars[i] = Fr::FromU64(i);
        break;
      default:
        scalars[i] = glv.lambda().Neg() + Fr::FromU64(i);
        break;
    }
    expected += G1::FromAffine(bases[i]).ScalarMul(scalars[i]);
  }
  EXPECT_EQ(Msm(bases, scalars), expected);
}

// Adversarial bucket shapes for the batched-affine reduction: a single
// repeated base with clustered signed scalars packs long chains full of
// doublings and exact cancellations (P paired with -P kills a slot), so
// later rounds see dead slots mid-chain — the cases where a pass-through
// copy's destination aliases an earlier pair's still-needed source.
TEST(GlvTest, MsmHandlesRepeatedBasesAndCancellations) {
  Rng rng(91);
  const G1Affine g = G1::Generator().ToAffine();
  for (size_t n : {64, 256, 2048}) {
    std::vector<G1Affine> bases(n, g);
    std::vector<Fr> scalars(n);
    Fr sum = Fr::Zero();
    for (size_t i = 0; i < n; ++i) {
      // Cluster on few small magnitudes; half the slots negate an earlier
      // scalar outright to force +d/-d collisions in the same bucket.
      if (i % 2 == 1) {
        scalars[i] = Fr::Zero() - scalars[i - 1];
      } else {
        scalars[i] = Fr::FromU64(1 + (i % 7));
      }
      sum += scalars[i];
    }
    // Unbalance a few so the sum is not trivially zero.
    scalars[0] = Fr::Random(rng);
    sum += scalars[0] - Fr::FromU64(1);
    const G1 expected = G1::Generator().ScalarMul(sum);
    for (int c : {4, 8, 13}) {
      for (size_t chunks : {size_t{1}, size_t{3}}) {
        EXPECT_EQ(internal::MsmImpl(bases.data(), scalars.data(), n, c, chunks), expected)
            << "n=" << n << " c=" << c << " chunks=" << chunks;
      }
    }
  }
}

}  // namespace
}  // namespace zkml
