#include "src/pcs/commit_basis.h"

#include <bit>
#include <utility>

#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace zkml {

G1 CommitBasis::Msm(const Fr* scalars, size_t n) const {
  return table.size() != 0 ? table.Msm(scalars, n) : zkml::Msm(points.data(), scalars, n);
}

const CommitBasis& CommitBasisCache::Get(size_t n, const BuildFn& build) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (basis_ != nullptr) {
      return *basis_;
    }
  }
  // Build WITHOUT holding the mutex: the builds run on the pool, and a
  // thread helping the pool can steal a task that re-enters this function —
  // holding the lock there would self-deadlock (same discipline as the
  // domain's coset tables). A racing builder's copy is dropped; the values
  // are identical. The basis counter counts every build, a dropped one
  // included, so a caller that races itself shows; the table counter counts
  // the table kept.
  static obs::Counter& builds =
      obs::MetricsRegistry::Global().counter("pcs.lagrange_basis_builds");
  static obs::Counter& kept = obs::MetricsRegistry::Global().counter("pcs.fixed_base_table_builds");
  builds.Increment();
  auto basis = std::make_unique<CommitBasis>();
  basis->domain = std::make_shared<const EvaluationDomain>(std::countr_zero(n));
  {
    obs::Span span("lagrange-basis-build");
    basis->points = build(*basis->domain);
  }
  ZKML_CHECK(basis->points.size() == n);
  if (n < kMsmSerialThreshold) {
    obs::Span span("fixed-base-table-build");
    basis->table = FixedBaseTable::Build(basis->points.data(), n);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (basis_ == nullptr) {
    if (basis->table.size() != 0) {
      kept.Increment();
    }
    basis_ = std::move(basis);
  }
  return *basis_;
}

}  // namespace zkml
