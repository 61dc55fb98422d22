// Sharded-proving names from before src/zkml/plan.h, kept as forwards onto
// the plan path for callers written against them (perfbench/bench.cc).
#ifndef SRC_ZKML_SHARDED_H_
#define SRC_ZKML_SHARDED_H_

#include "src/zkml/plan.h"

namespace zkml {

using CompiledShardedModel = CompiledPlan;

// `num_shards` as ResolveShardCount reads it: 0 means one per hardware thread.
inline StatusOr<CompiledPlan> CompileSharded(const Model& model, size_t num_shards,
                                             const ZkmlOptions& options = {}) {
  return CompilePlan(model, {ResolveShardCount(model, num_shards), 1}, options);
}

inline VerifyResult VerifySharded(const CompiledPlan& compiled, const std::vector<Fr>& instance,
                                  const std::vector<uint8_t>& artifact) {
  return VerifyPlan(compiled, instance, artifact);
}

}  // namespace zkml

#endif  // SRC_ZKML_SHARDED_H_
