// Batched-proving names from before src/zkml/plan.h, kept as forwards onto
// the plan path for callers written against them (perfbench/bench.cc).
#ifndef SRC_ZKML_BATCHED_H_
#define SRC_ZKML_BATCHED_H_

#include "src/zkml/plan.h"

namespace zkml {

using CompiledBatchedModel = CompiledPlan;

inline StatusOr<CompiledPlan> CompileBatched(const Model& model, size_t batch,
                                             const ZkmlOptions& options = {}) {
  return CompilePlan(model, {1, batch}, options);
}

inline VerifyResult VerifyBatchedDetailed(const CompiledPlan& compiled,
                                          const std::vector<Fr>& instance,
                                          const std::vector<uint8_t>& artifact) {
  return VerifyPlan(compiled, instance, artifact);
}

}  // namespace zkml

#endif  // SRC_ZKML_BATCHED_H_
