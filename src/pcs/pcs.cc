#include "src/pcs/pcs.h"

#include <bit>

#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/obs/metrics.h"

namespace zkml {
namespace {

obs::Counter& CommitCounter(PcsKind kind) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter* const counters[2] = {&reg.counter("pcs.kzg.lagrange_commits"),
                                            &reg.counter("pcs.ipa.lagrange_commits")};
  return *counters[kind == PcsKind::kIpa];
}

// One MSM per scalar vector against `basis`, written into slot i.
std::vector<PcsCommitment> MsmBatch(const CommitBasis& basis,
                                    const std::vector<const std::vector<Fr>*>& scalars) {
  std::vector<PcsCommitment> out(scalars.size());
  const auto commit = [&](size_t i) {
    out[i].point = basis.Msm(scalars[i]->data(), scalars[i]->size()).ToAffine();
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

Pcs::Pcs(size_t n) : n_(n) {
  ZKML_CHECK_MSG(std::has_single_bit(n), "commitment setup size must be a power of two");
}

const CommitBasis& Pcs::Basis() const {
  return basis_cache_.Get(n_, [this](const EvaluationDomain& d) { return LagrangeBasis(d); });
}

const std::shared_ptr<const EvaluationDomain>& Pcs::domain() const { return Basis().domain; }

std::vector<PcsCommitment> Pcs::CommitLagrange(
    const std::vector<const std::vector<Fr>*>& evals) const {
  CommitCounter(kind()).Increment(evals.size());
  if (evals.empty()) {
    return {};
  }
  for (const std::vector<Fr>* e : evals) {
    ZKML_CHECK_MSG(e->size() == n_, "Lagrange commitment size must equal the setup's size");
  }
  return MsmBatch(Basis(), evals);
}

PcsCommitment Pcs::CommitLagrange(const std::vector<Fr>& evals) const {
  return CommitLagrange(std::vector<const std::vector<Fr>*>{&evals})[0];
}

}  // namespace zkml
