#include "src/pcs/pcs.h"

#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/obs/metrics.h"

namespace zkml {
namespace {

obs::Counter& CommitCounter(PcsKind kind, bool lagrange) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter* const counters[2][2] = {
      {&reg.counter("pcs.kzg.commits"), &reg.counter("pcs.kzg.lagrange_commits")},
      {&reg.counter("pcs.ipa.commits"), &reg.counter("pcs.ipa.lagrange_commits")}};
  return *counters[kind == PcsKind::kIpa][lagrange];
}

// One MSM per scalar vector, scalars[i] against bases[i], written into slot i.
std::vector<PcsCommitment> MsmBatch(const std::vector<CommitBasis>& bases,
                                    const std::vector<const std::vector<Fr>*>& scalars) {
  std::vector<PcsCommitment> out(scalars.size());
  const auto commit = [&](size_t i) {
    out[i].point = bases[i].Msm(scalars[i]->data(), scalars[i]->size()).ToAffine();
  };
  if (scalars.size() == 1) {
    commit(0);
    return out;
  }
  {
    TaskGroup group;
    for (size_t i = 0; i < scalars.size(); ++i) {
      group.Submit([&commit, i] { commit(i); });
    }
  }
  return out;
}

}  // namespace

Status CheckOpeningBatchShape(const PcsOpeningBatch& batch, const char* backend) {
  if (batch.commitments.size() != batch.evals.size()) {
    return InvalidArgumentError(std::string(backend) + ": " +
                                std::to_string(batch.commitments.size()) +
                                " commitments but " + std::to_string(batch.evals.size()) +
                                " claimed evaluations");
  }
  if (batch.commitments.empty()) {
    return InvalidArgumentError(std::string(backend) + ": empty opening batch");
  }
  return Status::Ok();
}

std::vector<PcsCommitment> Pcs::Commit(const std::vector<const std::vector<Fr>*>& polys) const {
  CommitCounter(kind(), /*lagrange=*/false).Increment(polys.size());
  const std::vector<G1Affine>& monomial = bases();
  for (const std::vector<Fr>* p : polys) {
    ZKML_CHECK_MSG(p->size() <= monomial.size(), "polynomial exceeds commitment setup");
  }
  return MsmBatch(std::vector<CommitBasis>(polys.size(), basis_cache_.Monomial(monomial)), polys);
}

std::vector<PcsCommitment> Pcs::CommitLagrange(
    const std::vector<const std::vector<Fr>*>& evals) const {
  CommitCounter(kind(), /*lagrange=*/true).Increment(evals.size());
  const auto build = [this](size_t n) { return LagrangeBasis(n); };
  std::vector<CommitBasis> lagrange(evals.size());
  for (size_t i = 0; i < evals.size(); ++i) {
    const size_t n = evals[i]->size();
    ZKML_CHECK_MSG(n != 0 && (n & (n - 1)) == 0,
                   "Lagrange commitment size must be a power of two");
    ZKML_CHECK_MSG(n <= max_len(), "Lagrange commitment size exceeds setup");
    lagrange[i] = basis_cache_.Lagrange(n, build);
  }
  return MsmBatch(lagrange, evals);
}

PcsCommitment Pcs::Commit(const std::vector<Fr>& coeffs) const {
  return Commit(std::vector<const std::vector<Fr>*>{&coeffs})[0];
}

PcsCommitment Pcs::CommitLagrange(const std::vector<Fr>& evals) const {
  return CommitLagrange(std::vector<const std::vector<Fr>*>{&evals})[0];
}

}  // namespace zkml
