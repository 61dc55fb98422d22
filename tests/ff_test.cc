#include <gtest/gtest.h>

#include <vector>

#include "src/base/rng.h"
#include "src/ff/batch_mul.h"
#include "src/ff/fields.h"
#include "src/ff/u256.h"

namespace zkml {
namespace {

TEST(U256Test, HexRoundTrip) {
  const std::string hex = "0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001";
  U256 v = U256::FromHex(hex);
  EXPECT_EQ(v.ToHex(), hex);
  EXPECT_EQ(U256::FromU64(0).ToHex(), "0x0");
  EXPECT_EQ(U256::FromU64(255).ToHex(), "0xff");
}

TEST(U256Test, AddSubInverse) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    U256 a, b;
    for (int i = 0; i < 4; ++i) {
      a.limbs[i] = rng.NextU64();
      b.limbs[i] = rng.NextU64();
    }
    U256 sum, back;
    uint64_t carry = AddU256(a, b, &sum);
    uint64_t borrow = SubU256(sum, b, &back);
    EXPECT_EQ(carry, borrow);
    EXPECT_EQ(back, a);
  }
}

TEST(U256Test, Compare) {
  U256 a = U256::FromU64(5);
  U256 b = U256::FromU64(7);
  EXPECT_EQ(CmpU256(a, b), -1);
  EXPECT_EQ(CmpU256(b, a), 1);
  EXPECT_EQ(CmpU256(a, a), 0);
  U256 big;
  big.limbs[3] = 1;
  EXPECT_EQ(CmpU256(big, b), 1);
}

TEST(U256Test, ShiftRight) {
  U256 v = U256::FromHex("0x10000000000000000");  // 2^64
  EXPECT_EQ(ShrU256(v, 64), U256::FromU64(1));
  EXPECT_EQ(ShrU256(v, 1), U256::FromHex("0x8000000000000000"));
  EXPECT_EQ(ShrU256(v, 65), U256::FromU64(0));
}

TEST(U256Test, HighestBit) {
  EXPECT_EQ(U256::FromU64(0).HighestBit(), -1);
  EXPECT_EQ(U256::FromU64(1).HighestBit(), 0);
  EXPECT_EQ(U256::FromU64(2).HighestBit(), 1);
  EXPECT_EQ(FrParams::Modulus().HighestBit(), 253);
}

TEST(FrTest, AdditiveIdentities) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    Fr a = Fr::Random(rng);
    EXPECT_EQ(a + Fr::Zero(), a);
    EXPECT_EQ(a - a, Fr::Zero());
    EXPECT_EQ(a + a.Neg(), Fr::Zero());
    EXPECT_EQ(a.Double(), a + a);
  }
}

TEST(FrTest, MultiplicativeIdentities) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    Fr a = Fr::Random(rng);
    EXPECT_EQ(a * Fr::One(), a);
    EXPECT_EQ(a * Fr::Zero(), Fr::Zero());
    EXPECT_EQ(a.Square(), a * a);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fr::One());
    }
  }
}

TEST(FrTest, KnownSmallProducts) {
  EXPECT_EQ(Fr::FromU64(6), Fr::FromU64(2) * Fr::FromU64(3));
  // Products below 2^128 must match plain integer multiplication.
  unsigned __int128 prod = static_cast<unsigned __int128>(1000000007) * 998244353;
  U256 expected;
  expected.limbs[0] = static_cast<uint64_t>(prod);
  expected.limbs[1] = static_cast<uint64_t>(prod >> 64);
  EXPECT_EQ((Fr::FromU64(1000000007) * Fr::FromU64(998244353)).ToCanonical(), expected);
}

TEST(FrTest, Distributivity) {
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    Fr a = Fr::Random(rng);
    Fr b = Fr::Random(rng);
    Fr c = Fr::Random(rng);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ((a + b) * c, a * c + b * c);
  }
}

TEST(FrTest, FermatLittleTheorem) {
  Rng rng(5);
  U256 p_minus_1;
  SubU256(FrParams::Modulus(), U256::FromU64(1), &p_minus_1);
  for (int trial = 0; trial < 5; ++trial) {
    Fr a = Fr::Random(rng);
    if (a.IsZero()) {
      continue;
    }
    EXPECT_EQ(a.Pow(p_minus_1), Fr::One());
  }
}

TEST(FrTest, SignedEmbedding) {
  EXPECT_EQ(Fr::FromInt64(-5) + Fr::FromInt64(5), Fr::Zero());
  EXPECT_EQ(Fr::FromInt64(-3) * Fr::FromInt64(-7), Fr::FromU64(21));
  EXPECT_EQ(Fr::FromInt64(-12345).ToCenteredInt64(), -12345);
  EXPECT_EQ(Fr::FromInt64(987654321).ToCenteredInt64(), 987654321);
  EXPECT_EQ(Fr::Zero().ToCenteredInt64(), 0);
}

TEST(FrTest, RootsOfUnity) {
  for (int k = 0; k <= 10; ++k) {
    Fr w = FrRootOfUnity(k);
    // w^(2^k) == 1 but w^(2^(k-1)) != 1 (primitive).
    Fr acc = w;
    for (int i = 0; i < k; ++i) {
      acc = acc.Square();
    }
    EXPECT_EQ(acc, Fr::One()) << "k=" << k;
    if (k > 0) {
      Fr half = w;
      for (int i = 0; i + 1 < k; ++i) {
        half = half.Square();
      }
      EXPECT_NE(half, Fr::One()) << "k=" << k;
      EXPECT_EQ(half, Fr::One().Neg()) << "k=" << k;  // order-2 root is -1
    }
  }
}

TEST(FrTest, MaxTwoAdicityRootExists) {
  Fr w = FrRootOfUnity(28);
  Fr acc = w;
  for (int i = 0; i < 28; ++i) {
    acc = acc.Square();
  }
  EXPECT_EQ(acc, Fr::One());
}

TEST(FrTest, DeltaGeneratesDistinctCosets) {
  // delta^i * omega^j must be pairwise distinct for small i, j.
  Fr delta = FrDelta();
  Fr w = FrRootOfUnity(4);
  std::vector<Fr> seen;
  Fr di = Fr::One();
  for (int i = 0; i < 4; ++i) {
    Fr v = di;
    for (int j = 0; j < 16; ++j) {
      for (const Fr& s : seen) {
        EXPECT_NE(s, v);
      }
      seen.push_back(v);
      v *= w;
    }
    di *= delta;
  }
}

TEST(FrTest, BatchInverseMatchesScalar) {
  Rng rng(6);
  std::vector<Fr> xs;
  for (int i = 0; i < 40; ++i) {
    xs.push_back(Fr::Random(rng));
  }
  xs[7] = Fr::Zero();
  xs[23] = Fr::Zero();
  std::vector<Fr> expected = xs;
  for (Fr& e : expected) {
    e = e.Inverse();
  }
  BatchInverse(&xs);
  EXPECT_EQ(xs.size(), expected.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(xs[i], expected[i]) << i;
  }
}

TEST(FqTest, SqrtOfSquares) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Fq a = Fq::Random(rng);
    Fq sq = a.Square();
    Fq root;
    ASSERT_TRUE(FqSqrt(sq, &root));
    EXPECT_TRUE(root == a || root == a.Neg());
  }
}

TEST(FqTest, NonResidueDetected) {
  // -1 is a non-residue in Fq when q == 3 mod 4.
  Fq root;
  EXPECT_FALSE(FqSqrt(Fq::One().Neg(), &root));
}

TEST(FrTest, CanonicalRoundTrip) {
  Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    Fr a = Fr::Random(rng);
    EXPECT_EQ(Fr::FromCanonical(a.ToCanonical()), a);
  }
}

// The constexpr limb arrays feed the hot arithmetic paths directly; if one
// limb were mistyped every operation would silently compute mod the wrong
// number, so pin them to the human-readable hex strings.
TEST(ParamsTest, ModulusLimbsMatchHex) {
  const U256 fr_hex = U256::FromHex(FrParams::kModulusHex);
  const U256 fq_hex = U256::FromHex(FqParams::kModulusHex);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(fr_hex.limbs[i], FrParams::kModulusLimbs[i]) << "Fr limb " << i;
    EXPECT_EQ(fq_hex.limbs[i], FqParams::kModulusLimbs[i]) << "Fq limb " << i;
  }
  EXPECT_EQ(FrParams::Modulus(), fr_hex);
  EXPECT_EQ(FqParams::Modulus(), fq_hex);
}

// All Montgomery-multiplication implementations (asm dispatch behind
// operator*, portable no-carry CIOS, generic double-wide CIOS) must agree
// bit-for-bit on the same inputs — including edge values near the modulus.
TEST(ParamsTest, MontMulImplementationsAgree) {
  Rng rng(99);
  auto check_fr = [](const Fr& a, const Fr& b) {
    const Fr prod = a * b;
    EXPECT_EQ(prod, Fr::MulPortableNoCarry(a, b));
    EXPECT_EQ(prod, Fr::MulPortableGeneric(a, b));
  };
  auto check_fq = [](const Fq& a, const Fq& b) {
    const Fq prod = a * b;
    EXPECT_EQ(prod, Fq::MulPortableNoCarry(a, b));
    EXPECT_EQ(prod, Fq::MulPortableGeneric(a, b));
  };
  const Fr r_minus_1 = Fr::Zero() - Fr::One();
  check_fr(Fr::Zero(), Fr::Zero());
  check_fr(Fr::One(), r_minus_1);
  check_fr(r_minus_1, r_minus_1);
  for (int trial = 0; trial < 200; ++trial) {
    check_fr(Fr::Random(rng), Fr::Random(rng));
    check_fq(Fq::Random(rng), Fq::Random(rng));
  }
}

// The branch-free add, sub, neg and double against a reference built from
// the raw limb primitives and a compare, on raw Montgomery representations:
// the edge values 0, 1, p-1 and p-2 (pairs among them give sums of p-1, p
// and p+1, a == b and a = b - 1), then 10^5 random pairs.
template <typename F>
void CheckAddSubAgainstReference(uint64_t seed) {
  const U256& p = F::Ctx().modulus;
  auto ref_add = [&](const U256& a, const U256& b) {
    U256 s;
    const uint64_t carry = AddU256(a, b, &s);
    if (carry != 0 || CmpU256(s, p) >= 0) {
      SubU256(s, p, &s);
    }
    return s;
  };
  auto ref_sub = [&](const U256& a, const U256& b) {
    U256 d;
    if (SubU256(a, b, &d) != 0) {
      AddU256(d, p, &d);
    }
    return d;
  };
  auto ref_neg = [&](const U256& a) {
    U256 d;
    SubU256(p, a, &d);
    return a.IsZero() ? a : d;
  };
  auto check = [&](const U256& a, const U256& b) {
    const F fa = F::FromMontgomeryForm(a);
    const F fb = F::FromMontgomeryForm(b);
    EXPECT_EQ((fa + fb).MontgomeryForm(), ref_add(a, b)) << a.ToHex() << " + " << b.ToHex();
    EXPECT_EQ((fa - fb).MontgomeryForm(), ref_sub(a, b)) << a.ToHex() << " - " << b.ToHex();
    EXPECT_EQ(fa.Neg().MontgomeryForm(), ref_neg(a)) << "-" << a.ToHex();
    EXPECT_EQ(fa.Double().MontgomeryForm(), ref_add(a, a)) << "2*" << a.ToHex();
  };
  auto minus = [&](uint64_t k) {
    U256 r;
    SubU256(p, U256::FromU64(k), &r);
    return r;
  };
  const U256 half = ShrU256(p, 1);  // (p-1)/2: half + half = p-1
  U256 half_up;                     // (p+1)/2: half_up + half_up = p+1
  AddU256(half, U256::FromU64(1), &half_up);
  const std::vector<U256> edges = {U256::Zero(), U256::FromU64(1), U256::FromU64(2),
                                   minus(1),     minus(2),          half,
                                   half_up};
  for (const U256& a : edges) {
    for (const U256& b : edges) {
      check(a, b);
    }
  }
  Rng rng(seed);
  for (int i = 0; i < 100000; ++i) {
    check(F::Random(rng).MontgomeryForm(), F::Random(rng).MontgomeryForm());
  }
}

TEST(FrTest, AddSubNegDoubleMatchReference) { CheckAddSubAgainstReference<Fr>(31); }
TEST(FqTest, AddSubNegDoubleMatchReference) { CheckAddSubAgainstReference<Fq>(32); }

// AddU256/SubU256 run on the carry flag where the target has one; pin them
// to a plain __int128 chain on carries that ripple through every limb.
TEST(U256Test, CarryChainsMatchWideArithmetic) {
  auto wide_add = [](const U256& a, const U256& b, U256* r) {
    unsigned __int128 c = 0;
    for (int i = 0; i < 4; ++i) {
      c += static_cast<unsigned __int128>(a.limbs[i]) + b.limbs[i];
      r->limbs[i] = static_cast<uint64_t>(c);
      c >>= 64;
    }
    return static_cast<uint64_t>(c);
  };
  const uint64_t ones = ~uint64_t{0};
  std::vector<U256> values = {U256::Zero(), U256::FromU64(1), U256{{ones, ones, ones, ones}},
                              U256{{ones, 0, ones, 0}}, U256{{0, ones, 0, ones}}};
  Rng rng(33);
  for (int i = 0; i < 200; ++i) {
    values.push_back(U256{{rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64()}});
  }
  for (const U256& a : values) {
    for (const U256& b : {values[0], values[1], values[2], values[3], values[4], values.back()}) {
      U256 got, want;
      EXPECT_EQ(AddU256(a, b, &got), wide_add(a, b, &want));
      EXPECT_EQ(got, want);
      // a - b == a + ~b + 1, with the borrow the complement of that carry.
      U256 not_b{{~b.limbs[0], ~b.limbs[1], ~b.limbs[2], ~b.limbs[3]}};
      U256 t;
      const uint64_t c1 = wide_add(a, not_b, &t);
      const uint64_t c2 = wide_add(t, U256::FromU64(1), &want);
      EXPECT_EQ(SubU256(a, b, &got), 1 - (c1 | c2));
      EXPECT_EQ(got, want);
    }
  }
}

TEST(FrTest, BatchInverseNonZeroMatchesScalar) {
  Rng rng(11);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5}, size_t{37},
                   size_t{256}}) {
    std::vector<Fr> xs(n);
    for (Fr& x : xs) {
      do {
        x = Fr::Random(rng);
      } while (x.IsZero());
    }
    std::vector<Fr> expected = xs;
    for (Fr& e : expected) {
      e = e.Inverse();
    }
    std::vector<Fr> scratch;
    BatchInverseNonZero(xs.data(), xs.size(), scratch);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(xs[i], expected[i]) << "n=" << n << " i=" << i;
    }
  }
}

// BatchMul must be bit-identical to an operator* loop whichever kernel it
// dispatches to. Sizes straddle the 8-lane SIMD group boundary so both the
// vector body and the scalar tail are exercised in the same call.
template <typename F>
void CheckBatchMulMatchesScalar(uint64_t seed) {
  Rng rng(seed);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{16},
                   size_t{23}, size_t{64}, size_t{200}}) {
    std::vector<F> a(n), b(n), expected(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = F::Random(rng);
      b[i] = F::Random(rng);
      expected[i] = a[i] * b[i];
    }
    std::vector<F> dst(n);
    BatchMul(dst.data(), a.data(), b.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(dst[i], expected[i]) << "n=" << n << " i=" << i;
    }
    // In-place (dst aliases a) — the documented hot-loop usage.
    std::vector<F> in_place = a;
    BatchMul(in_place.data(), in_place.data(), b.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(in_place[i], expected[i]) << "aliased n=" << n << " i=" << i;
    }
    if (n > 0) {
      const F s = b[0];
      std::vector<F> scaled = a;
      BatchMulScalar(scaled.data(), scaled.data(), s, n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(scaled[i], a[i] * s) << "scalar n=" << n << " i=" << i;
      }
    }
  }
}

TEST(BatchMulTest, MatchesScalarFr) { CheckBatchMulMatchesScalar<Fr>(2024); }
TEST(BatchMulTest, MatchesScalarFq) { CheckBatchMulMatchesScalar<Fq>(2025); }

// The tree-folded SIMD batch inversion must agree with scalar Inverse() for
// sizes covering the recursion base, odd splits, and deep recursion.
TEST(BatchMulTest, FlatBatchInverseMatchesScalar) {
  Rng rng(31);
  for (size_t n : {size_t{1}, size_t{127}, size_t{128}, size_t{129}, size_t{255}, size_t{256},
                   size_t{1000}, size_t{4096}}) {
    std::vector<Fq> xs(n);
    for (Fq& v : xs) {
      do {
        v = Fq::Random(rng);
      } while (v.IsZero());
    }
    std::vector<Fq> expected = xs;
    for (Fq& e : expected) {
      e = e.Inverse();
    }
    std::vector<Fq> save, scratch;
    BatchInverseFlatNonZero(xs.data(), n, save, scratch);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(xs[i], expected[i]) << "n=" << n << " i=" << i;
    }
    EXPECT_TRUE(save.empty());
  }
}

// Forces the IFMA kernel directly (bypassing the UseIfmaKernels runtime
// switch) so the vector path is validated even when ZKML_DISABLE_SIMD would
// route around it. Skipped on hardware without AVX-512 IFMA, where the
// dispatch tests above still cover the scalar path.
TEST(BatchMulTest, IfmaKernelMatchesScalarWhenSupported) {
  if (!internal::IfmaSupportedByHardware()) {
    GTEST_SKIP() << "no AVX-512 IFMA on this host";
  }
  Rng rng(77);
  constexpr size_t kN = 64;
  std::vector<Fr> a(kN), b(kN), dst(kN);
  for (size_t i = 0; i < kN; ++i) {
    a[i] = Fr::Random(rng);
    b[i] = Fr::Random(rng);
  }
  // Edge values near the modulus boundary in a few lanes.
  a[0] = Fr::Zero();
  b[1] = Fr::Zero();
  a[2] = Fr::Zero() - Fr::One();
  b[2] = Fr::Zero() - Fr::One();
  a[3] = Fr::One();
  internal::MontMulIfmaBatch(reinterpret_cast<uint64_t*>(dst.data()),
                             reinterpret_cast<const uint64_t*>(a.data()),
                             reinterpret_cast<const uint64_t*>(b.data()),
                             internal::IfmaCtxFor<Fr>(), kN / 8);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(dst[i], a[i] * b[i]) << "i=" << i;
  }
  internal::MontMulIfmaBatchBroadcast(reinterpret_cast<uint64_t*>(dst.data()),
                                      reinterpret_cast<const uint64_t*>(a.data()),
                                      reinterpret_cast<const uint64_t*>(b.data()),
                                      internal::IfmaCtxFor<Fr>(), kN / 8);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(dst[i], a[i] * b[0]) << "broadcast i=" << i;
  }
}

}  // namespace
}  // namespace zkml
