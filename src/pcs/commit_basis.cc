#include "src/pcs/commit_basis.h"

#include <utility>

#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace zkml {

G1 CommitBasis::Msm(const Fr* scalars, size_t n) const {
  return table != nullptr ? table->Msm(scalars, n) : zkml::Msm(points, scalars, n);
}

CommitBasis CommitBasisCache::Monomial(const std::vector<G1Affine>& monomial_bases) const {
  return {monomial_bases.data(), Table(/*lagrange=*/false, monomial_bases)};
}

CommitBasis CommitBasisCache::Lagrange(const std::vector<G1Affine>& monomial_bases,
                                       size_t n) const {
  ZKML_CHECK_MSG(n != 0 && (n & (n - 1)) == 0,
                 "Lagrange commitment size must be a power of two");
  ZKML_CHECK_MSG(n <= monomial_bases.size(), "Lagrange commitment size exceeds setup");
  const std::vector<G1Affine>* points = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = lagrange_.find(n);
    if (it != lagrange_.end()) {
      points = &it->second;
    }
  }
  if (points == nullptr) {
    // Build WITHOUT holding the mutex: the G1 FFT runs ParallelFor, and a
    // thread helping the pool can steal a task that re-enters this function —
    // holding the lock there would self-deadlock (same discipline as the
    // domain's coset tables). A racing builder's copy is discarded by
    // emplace; the values are identical.
    static obs::Counter& builds =
        obs::MetricsRegistry::Global().counter("pcs.lagrange_basis_builds");
    builds.Increment();
    obs::Span span("lagrange-basis-build");
    std::vector<G1Affine> prefix(monomial_bases.begin(), monomial_bases.begin() + n);
    std::vector<G1Affine> lagrange = LagrangeBasesFromMonomial(prefix);
    std::lock_guard<std::mutex> lock(mu_);
    points = &lagrange_.emplace(n, std::move(lagrange)).first->second;
  }
  return {points->data(), Table(/*lagrange=*/true, *points)};
}

const FixedBaseTable* CommitBasisCache::Table(bool lagrange,
                                              const std::vector<G1Affine>& points) const {
  if (points.size() >= kMsmSerialThreshold) {
    return nullptr;
  }
  const std::pair<bool, size_t> key(lagrange, points.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(key);
    if (it != tables_.end()) {
      return &it->second;
    }
  }
  // Built outside the lock for the same reason as the Lagrange bases; the
  // counter counts tables kept, so a racing builder's dropped copy does not
  // show.
  static obs::Counter& kept =
      obs::MetricsRegistry::Global().counter("pcs.fixed_base_table_builds");
  FixedBaseTable table = [&] {
    obs::Span span("fixed-base-table-build");
    return FixedBaseTable::Build(points.data(), points.size());
  }();
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = tables_.emplace(key, std::move(table));
  if (inserted) {
    kept.Increment();
  }
  return &it->second;
}

}  // namespace zkml
