// Machine-readable end-to-end run telemetry (schema "zkml.run_report/v2"):
// one JSON document per compile→prove(→verify) run of any proof plan. It is
// keyed by the plan {shards, batch} and lists every circuit of the plan with
// its layout, the cost model's prediction beside its measured prove time,
// and its proof and statement sizes. Run-wide fields give wall-clock per
// phase, the artifact's size, circuit 0's per-stage prover breakdown with
// kernel counters, and the allocation high-water mark. Emitted by
// `zkml_cli --report=<file>`, the serving daemon's per-job reports and the
// bench harness, so BENCH_*.json trajectories can attribute regressions to a
// stage instead of a total.
#ifndef SRC_OBS_RUN_REPORT_H_
#define SRC_OBS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/kernel_stats.h"
#include "src/base/status.h"
#include "src/obs/json.h"

namespace zkml {
namespace obs {

struct RunReportStage {
  std::string name;
  double seconds = 0.0;
  KernelCounters kernels;
};

// One circuit of the plan: shard i of a sharded plan, else the one circuit.
struct RunReportCircuit {
  std::string name;

  // Chosen physical layout.
  uint32_t k = 0;
  uint32_t num_columns = 0;
  uint64_t rows_used = 0;
  uint64_t num_lookups = 0;

  uint64_t flops = 0;              // cost-model weight of one inference
  uint64_t input_elements = 0;     // statement prefix: every inference's input
  uint64_t instance_elements = 0;  // the whole statement this circuit proves

  // Cost-model prediction vs. reality; estimator error is the ratio.
  double predicted_prove_seconds = 0.0;
  double prove_seconds = 0.0;  // this circuit's CreateProof
  uint64_t proof_bytes = 0;    // this circuit's plonk proof
};

struct RunReport {
  std::string model;
  std::string backend;  // "kzg" | "ipa"

  // The plan: `shards` circuits prove one inference, or one circuit proves
  // `batch` inferences.
  uint64_t shards = 1;
  uint64_t batch = 1;
  std::vector<RunReportCircuit> circuits;  // `shards` of them

  double compile_seconds = 0.0;  // the whole plan, wall clock
  double keygen_seconds = 0.0;   // summed over circuits
  double witness_seconds = 0.0;
  double prove_seconds = 0.0;  // wall clock of the plan's prove phase
  double verify_seconds = 0.0;

  uint64_t proof_bytes = 0;            // the zkml.proof/v2 artifact
  std::vector<RunReportStage> stages;  // circuit 0's prover rounds, in order
  KernelCounters kernels;              // kernel work of those rounds
  uint64_t rss_hwm_kb = 0;

  Json ToJson() const;
  // Rejects a foreign schema, a missing or zero plan, and a `circuits` array
  // whose length is not the plan's shard count.
  static StatusOr<RunReport> FromJson(const Json& j);

  Status WriteFile(const std::string& path) const;
};

}  // namespace obs
}  // namespace zkml

#endif  // SRC_OBS_RUN_REPORT_H_
