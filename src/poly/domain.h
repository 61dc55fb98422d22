// Radix-2 evaluation domains over Fr and the FFT machinery the PLONK prover
// uses: value<->coefficient transforms on the 2^k-th roots of unity, coset
// evaluations on the extended domain used by the quotient argument, and
// Lagrange-basis helpers the verifier evaluates at the challenge point.
//
// Twiddle tables are computed once per domain (and once per extended coset
// domain, lazily) and reused by every transform; the prover runs hundreds of
// FFTs over the same handful of domains, and rebuilding the power table used
// to dominate small-FFT cost. Small transforms run serially on the calling
// thread; callers transform many columns at once in their own TaskGroups.
#ifndef SRC_POLY_DOMAIN_H_
#define SRC_POLY_DOMAIN_H_

#include <cstddef>
#include <map>
#include <mutex>
#include <vector>

#include "src/ff/fields.h"
#include "src/poly/polynomial.h"

namespace zkml {

// Transforms up to this size run as one serial, cache-resident radix-2 pass
// on the calling thread; larger ones spread each stage over the pool. The
// prover and keygen already transform many columns at once in their own
// TaskGroups, and that is where small transforms get their parallelism:
// splitting one into pool tasks of a few hundred butterflies per stage costs
// more in scheduling than it saves. Chosen from BM_Fft and BM_CosetFftRound
// (DESIGN.md §5).
inline constexpr size_t kSerialFftMaxN = static_cast<size_t>(1) << 13;

// In-place FFT on a power-of-two sized vector. `omega` must be a primitive
// n-th root of unity. Input and output are in natural order. Builds its own
// twiddle table; prefer the EvaluationDomain methods in repeated use.
void Fft(std::vector<Fr>* values, const Fr& omega);

class EvaluationDomain {
 public:
  // Domain of size 2^k.
  explicit EvaluationDomain(int k);

  int k() const { return k_; }
  size_t size() const { return n_; }
  const Fr& omega() const { return omega_; }
  const Fr& omega_inv() const { return omega_inv_; }

  // omega^i, for i in [0, n).
  const std::vector<Fr>& elements() const { return elements_; }
  Fr element(size_t i) const { return elements_[i % n_]; }

  // Coefficients -> evaluations over the domain (pads with zeros; input size
  // must be <= n).
  std::vector<Fr> FftFromCoeffs(const std::vector<Fr>& coeffs) const;
  // Evaluations -> coefficients.
  std::vector<Fr> IfftToCoeffs(const std::vector<Fr>& evals) const;

  // Evaluations of the polynomial (given by coefficients, size <= ext_n) over
  // the coset g * H_ext where H_ext is the domain of size ext_n = n << ext_k
  // and g is the Fr multiplicative generator. Used for quotient computation:
  // the vanishing polynomial of H never vanishes on this coset.
  std::vector<Fr> CosetFftFromCoeffs(const std::vector<Fr>& coeffs, int ext_k) const;
  // As above, but writes into *out (resized to n << ext_k; previous contents
  // discarded) so callers can reuse pooled buffers instead of allocating a
  // fresh multi-MB vector per column.
  void CosetFftFromCoeffsInto(const std::vector<Fr>& coeffs, int ext_k,
                              std::vector<Fr>* out) const;
  // Inverse: coset evaluations (size n << ext_k) -> coefficients.
  std::vector<Fr> CosetIfftToCoeffs(const std::vector<Fr>& evals, int ext_k) const;

  // Values of 1 / (g^n * (w_ext^n)^j - 1) for j in [0, n<<ext_k): the inverse
  // of the vanishing polynomial of H on the extended coset. The sequence has
  // period 2^ext_k.
  std::vector<Fr> VanishingInverseOnCoset(int ext_k) const;

  // x^n - 1.
  Fr EvaluateVanishing(const Fr& x) const;
  // l_i(x) = omega^i * (x^n - 1) / (n * (x - omega^i)). Callers must not pass
  // x inside the domain.
  Fr EvaluateLagrange(size_t i, const Fr& x) const;
  // The first `count` (<= n) values l_i(x), with one batch inversion for
  // their denominators. At x = omega^j, where the formula divides by zero,
  // they are the unit vector e_j (cut to `count`). KZG's Lagrange basis (at
  // tau) and the IPA's b vector (at the opening point) are all n of them;
  // the verifier's instance combination needs only as many as it has values.
  std::vector<Fr> LagrangeCoefficients(const Fr& x, size_t count) const;
  std::vector<Fr> LagrangeCoefficients(const Fr& x) const { return LagrangeCoefficients(x, n_); }
  // Evaluates sum_i values[i] * l_i(x) without interpolating (O(n)).
  Fr EvaluateLagrangeCombination(const std::vector<Fr>& values, const Fr& x) const;

 private:
  // Tables for the extended coset domain of size n << ext_k, built on first
  // use and cached for the lifetime of the domain.
  struct CosetTables {
    // Butterfly twiddles of w_ext and w_ext^{-1}: the powers i < ext_n/2,
    // as the serial pass's stage table at small sizes (domain.cc,
    // TwiddleTable).
    std::vector<Fr> twiddles;
    std::vector<Fr> inv_twiddles;
    std::vector<Fr> scale;         // g^i, i < ext_n
    std::vector<Fr> inv_scale;     // ext_n^{-1} * g^{-i}, i < ext_n
  };
  const CosetTables& GetCosetTables(int ext_k) const;

  int k_;
  size_t n_;
  Fr omega_;
  Fr omega_inv_;
  Fr n_inv_;
  std::vector<Fr> elements_;
  // Butterfly twiddles of omega (forward transforms) and omega^{-1}
  // (inverse transforms), laid out as the coset tables' are.
  std::vector<Fr> twiddles_;
  std::vector<Fr> inv_twiddles_;
  mutable std::mutex coset_mu_;
  mutable std::map<int, CosetTables> coset_tables_;
};

}  // namespace zkml

#endif  // SRC_POLY_DOMAIN_H_
