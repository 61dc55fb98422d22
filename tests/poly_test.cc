#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/poly/domain.h"
#include "src/poly/polynomial.h"

namespace zkml {
namespace {

Poly RandomPoly(Rng& rng, size_t n) {
  std::vector<Fr> c(n);
  for (Fr& x : c) {
    x = Fr::Random(rng);
  }
  return Poly(std::move(c));
}

TEST(PolyTest, EvaluateMatchesManual) {
  // p(x) = 3 + 2x + x^2
  Poly p({Fr::FromU64(3), Fr::FromU64(2), Fr::FromU64(1)});
  EXPECT_EQ(p.Evaluate(Fr::FromU64(0)), Fr::FromU64(3));
  EXPECT_EQ(p.Evaluate(Fr::FromU64(1)), Fr::FromU64(6));
  EXPECT_EQ(p.Evaluate(Fr::FromU64(5)), Fr::FromU64(3 + 10 + 25));
}

TEST(PolyTest, AddSubMul) {
  Rng rng(11);
  Poly a = RandomPoly(rng, 9);
  Poly b = RandomPoly(rng, 5);
  Fr x = Fr::Random(rng);
  EXPECT_EQ((a + b).Evaluate(x), a.Evaluate(x) + b.Evaluate(x));
  EXPECT_EQ((a - b).Evaluate(x), a.Evaluate(x) - b.Evaluate(x));
  EXPECT_EQ((a * b).Evaluate(x), a.Evaluate(x) * b.Evaluate(x));
  EXPECT_EQ(a.ScalarMul(Fr::FromU64(7)).Evaluate(x), a.Evaluate(x) * Fr::FromU64(7));
}

TEST(PolyTest, Degree) {
  EXPECT_EQ(Poly().Degree(), -1);
  EXPECT_EQ(Poly({Fr::Zero()}).Degree(), -1);
  EXPECT_EQ(Poly({Fr::FromU64(1)}).Degree(), 0);
  EXPECT_EQ(Poly({Fr::Zero(), Fr::FromU64(1), Fr::Zero()}).Degree(), 1);
}

TEST(PolyTest, DivideByLinearReconstructs) {
  Rng rng(12);
  Poly p = RandomPoly(rng, 16);
  Fr z = Fr::Random(rng);
  Fr rem;
  Poly q = p.DivideByLinear(z, &rem);
  EXPECT_EQ(rem, p.Evaluate(z));
  // p(x) == q(x)*(x - z) + rem at random points.
  for (int t = 0; t < 5; ++t) {
    Fr x = Fr::Random(rng);
    EXPECT_EQ(p.Evaluate(x), q.Evaluate(x) * (x - z) + rem);
  }
}

TEST(PolyTest, DivideByLinearExactRoot) {
  Rng rng(13);
  Poly q = RandomPoly(rng, 7);
  Fr z = Fr::Random(rng);
  Poly p = q * Poly({z.Neg(), Fr::One()});  // q(x) * (x - z)
  Fr rem;
  Poly q2 = p.DivideByLinear(z, &rem);
  EXPECT_EQ(rem, Fr::Zero());
  Fr x = Fr::Random(rng);
  EXPECT_EQ(q2.Evaluate(x), q.Evaluate(x));
}

class DomainTest : public ::testing::TestWithParam<int> {};

TEST_P(DomainTest, FftRoundTrip) {
  const int k = GetParam();
  EvaluationDomain dom(k);
  Rng rng(20 + k);
  std::vector<Fr> coeffs(dom.size());
  for (Fr& c : coeffs) {
    c = Fr::Random(rng);
  }
  std::vector<Fr> evals = dom.FftFromCoeffs(coeffs);
  std::vector<Fr> back = dom.IfftToCoeffs(evals);
  EXPECT_EQ(back, coeffs);
}

TEST_P(DomainTest, FftMatchesDirectEvaluation) {
  const int k = GetParam();
  if (k > 8) {
    GTEST_SKIP() << "direct evaluation too slow";
  }
  EvaluationDomain dom(k);
  Rng rng(40 + k);
  Poly p = RandomPoly(rng, dom.size());
  std::vector<Fr> evals = dom.FftFromCoeffs(p.coeffs());
  for (size_t i = 0; i < dom.size(); ++i) {
    EXPECT_EQ(evals[i], p.Evaluate(dom.element(i))) << i;
  }
}

TEST_P(DomainTest, CosetFftMatchesDirectEvaluation) {
  const int k = GetParam();
  if (k > 6) {
    GTEST_SKIP() << "direct evaluation too slow";
  }
  EvaluationDomain dom(k);
  Rng rng(60 + k);
  Poly p = RandomPoly(rng, dom.size() * 2);  // degree beyond n: needs ext domain
  const int ext_k = 2;
  std::vector<Fr> evals = dom.CosetFftFromCoeffs(p.coeffs(), ext_k);
  EvaluationDomain ext(k + ext_k);
  const Fr g = Fr::FromU64(FrParams::kGenerator);
  for (size_t i = 0; i < ext.size(); i += 7) {
    EXPECT_EQ(evals[i], p.Evaluate(g * ext.element(i))) << i;
  }
  // Round trip.
  std::vector<Fr> coeffs = dom.CosetIfftToCoeffs(evals, ext_k);
  coeffs.resize(p.size());
  EXPECT_EQ(coeffs, p.coeffs());
}

// 10 and 13 cross the ParallelFor serial cutoff and odd/even stage counts;
// 14 is a size the real prover uses.
INSTANTIATE_TEST_SUITE_P(Sizes, DomainTest, ::testing::Values(1, 2, 4, 6, 8, 10, 12, 13, 14));

// Around kSerialFftMaxN, where transforms switch between the serial pass and
// the pool: every transform, forward and inverse, plain and coset, against
// Horner evaluation at rows spread over the domain.
TEST(DomainTest, TransformsAroundSerialThresholdMatchDirectEvaluation) {
  const Fr g = Fr::FromU64(FrParams::kGenerator);
  const int ext_k = 2;
  for (size_t n : {kSerialFftMaxN / 2, kSerialFftMaxN, 2 * kSerialFftMaxN}) {
    int k = 0;
    while ((static_cast<size_t>(1) << k) < n) {
      ++k;
    }
    EvaluationDomain dom(k);
    EvaluationDomain coset_base(k - ext_k);  // its coset domain has n points
    Rng rng(110 + k);
    std::vector<Fr> v(n);
    for (Fr& x : v) {
      x = Fr::Random(rng);
    }
    const Poly p(v);
    const std::vector<Fr> fft = dom.FftFromCoeffs(v);
    const Poly ifft(dom.IfftToCoeffs(v));
    const std::vector<Fr> coset = coset_base.CosetFftFromCoeffs(v, ext_k);
    const Poly coset_ifft(coset_base.CosetIfftToCoeffs(v, ext_k));
    for (size_t i : {size_t{0}, size_t{1}, size_t{7}, n / 4 + 3, n / 2 - 1, n / 2, n - 1}) {
      const Fr x = dom.element(i);
      EXPECT_EQ(fft[i], p.Evaluate(x)) << "n=" << n << " i=" << i;
      EXPECT_EQ(ifft.Evaluate(x), v[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(coset[i], p.Evaluate(g * x)) << "n=" << n << " i=" << i;
      EXPECT_EQ(coset_ifft.Evaluate(g * x), v[i]) << "n=" << n << " i=" << i;
    }
  }
}

// Small transforms take no pool tasks of their own; many at once inside one
// TaskGroup, as the prover issues them, must equal lone calls.
TEST(DomainTest, TransformsInsideTaskGroupEqualLoneCalls) {
  const int ext_k = 2;
  for (size_t n : {kSerialFftMaxN / 2, kSerialFftMaxN, 2 * kSerialFftMaxN}) {
    int k = 0;
    while ((static_cast<size_t>(1) << k) < n) {
      ++k;
    }
    EvaluationDomain dom(k - ext_k);
    Rng rng(130 + k);
    constexpr size_t kTasks = 16;
    std::vector<std::vector<Fr>> coeffs(kTasks, std::vector<Fr>(n));
    for (std::vector<Fr>& c : coeffs) {
      for (Fr& x : c) {
        x = Fr::Random(rng);
      }
    }
    std::vector<std::vector<Fr>> lone(kTasks), grouped(kTasks);
    for (size_t t = 0; t < kTasks; ++t) {
      lone[t] = t % 2 == 0 ? dom.CosetFftFromCoeffs(coeffs[t], ext_k)
                           : dom.CosetIfftToCoeffs(coeffs[t], ext_k);
    }
    {
      TaskGroup group;
      for (size_t t = 0; t < kTasks; ++t) {
        group.Submit([&, t] {
          grouped[t] = t % 2 == 0 ? dom.CosetFftFromCoeffs(coeffs[t], ext_k)
                                  : dom.CosetIfftToCoeffs(coeffs[t], ext_k);
        });
      }
    }
    for (size_t t = 0; t < kTasks; ++t) {
      EXPECT_EQ(grouped[t], lone[t]) << "n=" << n << " task=" << t;
    }
  }
}

// 2^17 is the first size that takes the cache-blocked six-step path; pin its
// output to the DFT definition (Horner spot-checks) and to the radix-2 path
// via the inverse round trip. 2^18 covers the odd/even log-size split
// (R != C).
TEST(DomainTest, SixStepFftMatchesDefinition) {
  for (int k : {17, 18}) {
    EvaluationDomain dom(k);
    Rng rng(90 + k);
    std::vector<Fr> coeffs(dom.size());
    for (Fr& c : coeffs) {
      c = Fr::Random(rng);
    }
    std::vector<Fr> evals = dom.FftFromCoeffs(coeffs);
    // Spot-check out[j] = p(w^j) at a handful of rows spread across the
    // matrix decomposition (first/last rows and columns, plus interior).
    Poly p(coeffs);
    for (size_t j : {size_t{0}, size_t{1}, size_t{511}, size_t{512}, size_t{513},
                     dom.size() / 2, dom.size() - 1}) {
      EXPECT_EQ(evals[j], p.Evaluate(dom.element(j))) << "k=" << k << " j=" << j;
    }
    std::vector<Fr> back = dom.IfftToCoeffs(evals);
    EXPECT_EQ(back, coeffs) << "k=" << k;
  }
}

// Coset transforms must round-trip at every extension factor the quotient
// argument can pick (and the cached tables for different ext_k on one domain
// must not interfere).
TEST(DomainTest, CosetRoundTripAcrossExtensions) {
  EvaluationDomain dom(6);
  Rng rng(70);
  for (int ext_k : {0, 1, 2, 3}) {
    const size_t ext_n = dom.size() << ext_k;
    std::vector<Fr> coeffs(ext_n);
    for (Fr& c : coeffs) {
      c = Fr::Random(rng);
    }
    std::vector<Fr> evals = dom.CosetFftFromCoeffs(coeffs, ext_k);
    EXPECT_EQ(dom.CosetIfftToCoeffs(evals, ext_k), coeffs) << "ext_k=" << ext_k;
  }
  // Interleave with a second domain to ensure per-domain caches are isolated.
  EvaluationDomain dom2(4);
  std::vector<Fr> coeffs2(dom2.size() << 2);
  for (Fr& c : coeffs2) {
    c = Fr::Random(rng);
  }
  EXPECT_EQ(dom2.CosetIfftToCoeffs(dom2.CosetFftFromCoeffs(coeffs2, 2), 2), coeffs2);
}

// The standalone Fft (which builds its own twiddles) and the domain's cached
// path must produce identical output.
TEST(DomainTest, StandaloneFftMatchesDomain) {
  for (int k : {3, 9, 11}) {
    EvaluationDomain dom(k);
    Rng rng(80 + k);
    std::vector<Fr> coeffs(dom.size());
    for (Fr& c : coeffs) {
      c = Fr::Random(rng);
    }
    std::vector<Fr> a = coeffs;
    Fft(&a, dom.omega());
    EXPECT_EQ(a, dom.FftFromCoeffs(coeffs)) << "k=" << k;
  }
}

TEST(DomainTest, VanishingInverseOnCoset) {
  EvaluationDomain dom(5);
  const int ext_k = 2;
  std::vector<Fr> inv = dom.VanishingInverseOnCoset(ext_k);
  EvaluationDomain ext(5 + ext_k);
  const Fr g = Fr::FromU64(FrParams::kGenerator);
  for (size_t i = 0; i < ext.size(); ++i) {
    Fr z = dom.EvaluateVanishing(g * ext.element(i));
    EXPECT_EQ(inv[i] * z, Fr::One()) << i;
  }
}

TEST(DomainTest, LagrangeBasis) {
  EvaluationDomain dom(4);
  Rng rng(99);
  Fr x = Fr::Random(rng);
  // l_i(omega^j) = delta_ij; check via combination with indicator vectors and
  // agreement with interpolation.
  std::vector<Fr> values(dom.size());
  for (Fr& v : values) {
    v = Fr::Random(rng);
  }
  std::vector<Fr> coeffs = dom.IfftToCoeffs(values);
  Poly p(coeffs);
  EXPECT_EQ(dom.EvaluateLagrangeCombination(values, x), p.Evaluate(x));
  Fr sum = Fr::Zero();
  for (size_t i = 0; i < dom.size(); ++i) {
    sum += dom.EvaluateLagrange(i, x) * values[i];
  }
  EXPECT_EQ(sum, p.Evaluate(x));
}

// Off the domain: the n values sum to 1 (they interpolate the constant 1)
// and combine any values to their interpolant's evaluation. A shorter count
// gives a prefix of the same values.
TEST(DomainTest, LagrangeCoefficientsOffDomain) {
  EvaluationDomain dom(4);
  Rng rng(101);
  const Fr x = Fr::Random(rng);
  const std::vector<Fr> l = dom.LagrangeCoefficients(x);
  ASSERT_EQ(l.size(), dom.size());
  Fr sum = Fr::Zero();
  Fr combined = Fr::Zero();
  std::vector<Fr> values(dom.size());
  for (size_t i = 0; i < dom.size(); ++i) {
    values[i] = Fr::Random(rng);
    sum += l[i];
    combined += l[i] * values[i];
    EXPECT_EQ(l[i], dom.EvaluateLagrange(i, x)) << i;
  }
  EXPECT_EQ(sum, Fr::One());
  EXPECT_EQ(combined, Poly(dom.IfftToCoeffs(values)).Evaluate(x));
  for (size_t count : {size_t{0}, size_t{1}, size_t{5}}) {
    const std::vector<Fr> prefix = dom.LagrangeCoefficients(x, count);
    EXPECT_EQ(prefix, std::vector<Fr>(l.begin(), l.begin() + count)) << count;
  }
}

// On the domain, where the closed form divides by zero: at omega^j the
// values are the unit vector e_j, for every j, and a shorter count cuts it
// (all zeros when j is past the count).
TEST(DomainTest, LagrangeCoefficientsOnDomain) {
  EvaluationDomain dom(3);
  for (size_t j = 0; j < dom.size(); ++j) {
    const std::vector<Fr> l = dom.LagrangeCoefficients(dom.element(j));
    ASSERT_EQ(l.size(), dom.size());
    for (size_t i = 0; i < dom.size(); ++i) {
      EXPECT_EQ(l[i], i == j ? Fr::One() : Fr::Zero()) << "j=" << j << " i=" << i;
    }
    EXPECT_EQ(dom.LagrangeCoefficients(dom.element(j), 3),
              std::vector<Fr>(l.begin(), l.begin() + 3))
        << "j=" << j;
  }
  std::vector<Fr> values = {Fr::FromU64(3), Fr::FromU64(1), Fr::FromU64(4)};
  EXPECT_EQ(dom.EvaluateLagrangeCombination(values, dom.element(2)), Fr::FromU64(4));
}

TEST(DomainTest, LagrangeCombinationShorterVector) {
  EvaluationDomain dom(4);
  Rng rng(100);
  std::vector<Fr> values = {Fr::FromU64(3), Fr::FromU64(1), Fr::FromU64(4)};
  std::vector<Fr> padded = values;
  padded.resize(dom.size(), Fr::Zero());
  Fr x = Fr::Random(rng);
  Poly p(dom.IfftToCoeffs(padded));
  EXPECT_EQ(dom.EvaluateLagrangeCombination(values, x), p.Evaluate(x));
}

TEST(DomainTest, VanishingAtDomainPoints) {
  EvaluationDomain dom(6);
  for (size_t i = 0; i < dom.size(); i += 5) {
    EXPECT_EQ(dom.EvaluateVanishing(dom.element(i)), Fr::Zero());
  }
  Rng rng(7);
  EXPECT_NE(dom.EvaluateVanishing(Fr::Random(rng)), Fr::Zero());
}

}  // namespace
}  // namespace zkml
