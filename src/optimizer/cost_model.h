// The optimizer's cost model (paper §7.4, Eq. 1-2): proving time is dominated
// by FFTs, MSMs, lookup-table construction, and residual field arithmetic.
// Per-size primitive timings come from one committed hardware profile.
#ifndef SRC_OPTIMIZER_COST_MODEL_H_
#define SRC_OPTIMIZER_COST_MODEL_H_

#include <cstddef>
#include <map>

#include "src/compiler/compiler.h"
#include "src/pcs/pcs.h"

namespace zkml {

class HardwareProfile {
 public:
  // The committed profile: FFT/MSM/lookup-construction seconds at a few
  // sizes 2^k, extrapolated by the known asymptotics for other sizes. It
  // times nothing, so every process ranks layouts alike.
  static const HardwareProfile& Cached();

  double FftSeconds(int k) const;
  double MsmSeconds(int k) const;
  double LookupBuildSeconds(int k) const;
  double field_mul_seconds() const { return field_mul_seconds_; }

 private:
  double Lookup(const std::map<int, double>& table, int k, double per_element_growth) const;

  std::map<int, double> fft_seconds_;
  std::map<int, double> msm_seconds_;
  std::map<int, double> lookup_seconds_;
  double field_mul_seconds_ = 0;
};

struct CostEstimate {
  double total_seconds = 0;
  double fft_seconds = 0;
  double msm_seconds = 0;
  double residual_seconds = 0;
  size_t n_ffts = 0;   // paper's n_FFT (size-2^k transforms)
  size_t n_msms = 0;
};

// Eq. (1)-(2): FFT count from column/lookup/permutation structure, MSM count
// from the commitment schedule, residual from lookup construction and gate
// evaluation on the extended domain.
CostEstimate EstimateProvingCost(const PhysicalLayout& layout, const HardwareProfile& hw,
                                 PcsKind backend);

// Predicted proof size in bytes (for the size-optimizing objective of §9.4).
size_t EstimateProofSize(const PhysicalLayout& layout, PcsKind backend);

}  // namespace zkml

#endif  // SRC_OPTIMIZER_COST_MODEL_H_
