// Per-backend home of every commitment basis and its fixed-base table: the
// monomial bases (the backend's setup) and one Lagrange basis per domain
// size. The Lagrange transform (a G1 inverse FFT of the monomial bases — see
// LagrangeBasesFromMonomial) and the tables are setup-class work: each runs
// once per (setup, basis, size), at keygen or a first commit in practice,
// and lives as long as the cache, i.e. its Pcs.
#ifndef SRC_PCS_COMMIT_BASIS_H_
#define SRC_PCS_COMMIT_BASIS_H_

#include <cstddef>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "src/ec/g1.h"

namespace zkml {

// A basis to commit against: its points, and their fixed-base table when the
// basis is small enough to keep one (null otherwise).
struct CommitBasis {
  const G1Affine* points = nullptr;
  const FixedBaseTable* table = nullptr;

  // sum_i scalars[i] * points[i] over the first n points: through the table
  // when there is one, Msm() otherwise.
  G1 Msm(const Fr* scalars, size_t n) const;
};

// Bases below kMsmSerialThreshold points get a table. Larger MSMs keep
// Msm()'s own parallel schedule, and their tables would cost tens of MB.
class CommitBasisCache {
 public:
  // The monomial bases themselves; they must outlive the cache (the backend's
  // setup does).
  CommitBasis Monomial(const std::vector<G1Affine>& monomial_bases) const;

  // Lagrange bases for the size-n prefix of `monomial_bases`. n must be a
  // power of two no larger than monomial_bases.size().
  CommitBasis Lagrange(const std::vector<G1Affine>& monomial_bases, size_t n) const;

 private:
  // The table of `points`, kept under (lagrange, size) and built on first
  // use; null for bases too large to table.
  const FixedBaseTable* Table(bool lagrange, const std::vector<G1Affine>& points) const;

  // Node-based maps: returned references and pointers stay valid for the
  // cache's lifetime.
  mutable std::mutex mu_;
  mutable std::map<size_t, std::vector<G1Affine>> lagrange_;
  mutable std::map<std::pair<bool, size_t>, FixedBaseTable> tables_;
};

}  // namespace zkml

#endif  // SRC_PCS_COMMIT_BASIS_H_
