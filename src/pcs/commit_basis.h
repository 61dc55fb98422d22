// Per-backend home of its one setup-class state: the size-n domain, the
// commitment basis over it and that basis's fixed-base table. A backend
// commits every vector in Lagrange form over its setup's size-n domain, so
// it has one basis: [L_i(tau)]G for KZG, the Pedersen bases themselves for
// IPA. The cache does not know how the basis is made: it asks its backend
// (Pcs::LagrangeBasis). All three are built together once, at keygen in
// practice, and kept as long as the cache, i.e. its Pcs.
#ifndef SRC_PCS_COMMIT_BASIS_H_
#define SRC_PCS_COMMIT_BASIS_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/ec/g1.h"
#include "src/poly/domain.h"

namespace zkml {

// A setup's domain, the basis to commit against over it, and the basis's
// fixed-base table when the basis is small enough to keep one.
struct CommitBasis {
  std::shared_ptr<const EvaluationDomain> domain;
  std::vector<G1Affine> points;
  FixedBaseTable table;  // empty for bases too large to table

  // sum_i scalars[i] * points[i] over the first n points: through the table
  // when there is one, Msm() otherwise.
  G1 Msm(const Fr* scalars, size_t n) const;
};

// Bases below kMsmSerialThreshold points get a table. Larger MSMs keep
// Msm()'s own parallel schedule, and their tables would cost tens of MB.
class CommitBasisCache {
 public:
  using BuildFn = std::function<std::vector<G1Affine>(const EvaluationDomain&)>;

  // The first call builds the size-n domain, build(domain) and its table;
  // later calls return the same ones.
  const CommitBasis& Get(size_t n, const BuildFn& build) const;

 private:
  mutable std::mutex mu_;
  mutable std::unique_ptr<const CommitBasis> basis_;
};

}  // namespace zkml

#endif  // SRC_PCS_COMMIT_BASIS_H_
