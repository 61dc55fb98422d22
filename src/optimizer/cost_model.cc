#include "src/optimizer/cost_model.h"

#include <cmath>
#include <iterator>

namespace zkml {

// The committed profile: BM_FieldMul, BM_Fft, BM_Msm and BM_LookupBuild from
// BENCH_primitives.json (4-CPU Intel Xeon, adx+avx2+avx512+avx512ifma, host
// git_sha 4d6124e21ef4), at the sizes the optimizer samples. Layouts are a
// pure function of (model, options), so a prover and a verifier on different
// machines compile the same plan. Editing a number here is a declared change,
// like a golden hash: it can move layouts, which
// OptimizerTest.CommittedProfilePinsLayouts pins.
const HardwareProfile& HardwareProfile::Cached() {
  static const HardwareProfile hw = [] {
    HardwareProfile p;
    p.field_mul_seconds_ = 4.35306902e-08;
    p.fft_seconds_ = {{10, 1.77028491e-4}, {12, 6.16330275e-4}, {14, 3.22077592e-3}};
    // 2^8 is a lone serial Msm(); 2^10 and up run on the pool.
    p.msm_seconds_ = {{8, 4.99092949e-3}, {10, 3.77225619e-3}, {12, 1.08290318e-2}};
    p.lookup_seconds_ = {{10, 1.47282074e-4}, {12, 6.13870548e-4}, {14, 2.72410252e-3}};
    return p;
  }();
  return hw;
}

double HardwareProfile::Lookup(const std::map<int, double>& table, int k,
                               double log_factor) const {
  if (table.empty()) {
    return 0;
  }
  auto it = table.find(k);
  if (it != table.end()) {
    return it->second;
  }
  // Scale from the closest measured size: time ~ n * (1 + log_factor*log n).
  auto measure_cost = [&](int kk) {
    const double n = std::pow(2.0, kk);
    return n * (1.0 + log_factor * kk);
  };
  auto lo = table.begin();
  auto hi = std::prev(table.end());
  const auto& ref = k < lo->first ? *lo : (k > hi->first ? *hi : *table.lower_bound(k));
  return ref.second * measure_cost(k) / measure_cost(ref.first);
}

double HardwareProfile::FftSeconds(int k) const { return Lookup(fft_seconds_, k, 1.0); }
double HardwareProfile::MsmSeconds(int k) const { return Lookup(msm_seconds_, k, 0.0); }
double HardwareProfile::LookupBuildSeconds(int k) const { return Lookup(lookup_seconds_, k, 0.0); }

CostEstimate EstimateProvingCost(const PhysicalLayout& layout, const HardwareProfile& hw,
                                 PcsKind backend) {
  CostEstimate est;
  const int k = layout.k;
  const int d = layout.max_degree;
  const int k_ext = k + layout.ext_k;  // k' = k + ceil(log2(d_max - 1))

  // Eq. (2): n_FFT = N_i + N_a + 3*N_lk + ceil(N_pm / (d-2)).
  const size_t perm_term = layout.num_perm == 0
                               ? 0
                               : (layout.num_perm + static_cast<size_t>(d) - 3) /
                                     (static_cast<size_t>(d) - 2);
  est.n_ffts = layout.num_instance + layout.num_advice + 3 * layout.num_lookups + perm_term;
  const size_t n_fft_ext = est.n_ffts + 1;

  // Eq. (1).
  est.fft_seconds = static_cast<double>(est.n_ffts) * hw.FftSeconds(k) +
                    static_cast<double>(n_fft_ext) * hw.FftSeconds(k_ext);

  // MSM schedule: n_FFT + d - 1 for KZG, one more for IPA.
  est.n_msms = est.n_ffts + static_cast<size_t>(d) - 1 + (backend == PcsKind::kIpa ? 1 : 0);
  est.msm_seconds = static_cast<double>(est.n_msms) * hw.MsmSeconds(k);

  // Residual: lookup construction plus gate evaluation on the extended domain.
  const double ext_n = std::pow(2.0, k_ext);
  est.residual_seconds = static_cast<double>(layout.num_lookups) * hw.LookupBuildSeconds(k) +
                         static_cast<double>(layout.num_gates + 3 * layout.num_lookups +
                                             2 * layout.num_perm) *
                             ext_n * hw.field_mul_seconds() * 3.0;

  est.total_seconds = est.fft_seconds + est.msm_seconds + est.residual_seconds;
  return est;
}

size_t EstimateProofSize(const PhysicalLayout& layout, PcsKind backend) {
  const size_t ext_factor = static_cast<size_t>(1) << layout.ext_k;
  const size_t commitments =
      layout.num_advice + 3 * layout.num_lookups + layout.num_perm_chunks + ext_factor;
  // Evaluations: every committed poly opened at least once, plus rotated
  // openings for lookups/permutation, plus fixed-column evaluations.
  const size_t evals = layout.num_advice + layout.num_fixed + layout.num_perm +
                       4 * layout.num_lookups + 2 * layout.num_perm_chunks + ext_factor;
  size_t opening_bytes;
  const size_t groups = 2;  // rotations {0, +1}
  if (backend == PcsKind::kKzg) {
    opening_bytes = groups * 33;
  } else {
    const size_t rounds = static_cast<size_t>(layout.k);
    opening_bytes = groups * (4 + rounds * 2 * 33 + 32);
  }
  return commitments * 33 + evals * 32 + opening_bytes;
}

}  // namespace zkml
