// Shared helpers for the table-reproduction benchmark binaries. Each binary
// regenerates one table of the paper's evaluation (see DESIGN.md §3) and
// prints it in the paper's format; absolute numbers differ from the paper
// (scaled models, laptop hardware) but relative structure should match.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/timer.h"
#include "src/layers/quant_executor.h"
#include "src/model/zoo.h"
#include "src/zkml/plan.h"

namespace zkml {

// When ZKML_TELEMETRY_DIR is set, every MeasureEndToEnd call drops its
// machine-readable run report (schema zkml.run_report/v2) named
// <dir>/run_<model>_<backend>.json next to the printed table.
inline void MaybeWriteRunReport(const obs::RunReport& report) {
  const char* dir = std::getenv("ZKML_TELEMETRY_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    return;
  }
  std::string name = report.model;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '-';
    }
  }
  const std::string path = std::string(dir) + "/run_" + name + "_" + report.backend + ".json";
  if (Status s = report.WriteFile(path); !s.ok()) {
    std::fprintf(stderr, "!! cannot write run report %s: %s\n", path.c_str(),
                 s.ToString().c_str());
  }
}

struct E2eMeasurement {
  std::string model;
  double prove_seconds = 0;
  double verify_seconds = 0;
  size_t proof_bytes = 0;
  int columns = 0;
  int k = 0;
};

// Compile -> prove -> verify one model as plan {1,1} and collect the Table 6/7
// row.
inline E2eMeasurement MeasureEndToEnd(const Model& model, const ZkmlOptions& options,
                                      uint64_t input_seed = 7) {
  E2eMeasurement m;
  m.model = model.name;
  const StatusOr<CompiledPlan> compiled = CompilePlan(model, {}, options);
  ZKML_CHECK_MSG(compiled.ok(), compiled.status().ToString().c_str());
  m.columns = compiled->circuits[0]->layout.num_columns;
  m.k = compiled->circuits[0]->layout.k;
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, input_seed), model.quant);
  const StatusOr<PlanProof> proof = ProvePlan(*compiled, {input});
  ZKML_CHECK_MSG(proof.ok(), proof.status().ToString().c_str());
  m.prove_seconds = proof->prove_seconds;
  m.proof_bytes = EncodePlanProof(proof->artifact).size();
  std::printf("%s prover stages:\n%s", model.name.c_str(),
              proof->prover_metrics.Summary().c_str());
  Timer verify_timer;
  const bool ok = VerifyPlan(*compiled, proof->instance, proof->artifact).ok();
  m.verify_seconds = verify_timer.ElapsedSeconds();
  if (!ok) {
    std::fprintf(stderr, "!! verification failed for %s\n", model.name.c_str());
  }
  MaybeWriteRunReport(BuildRunReport(*compiled, *proof, m.verify_seconds));
  return m;
}

// Measure proving only, at an explicit layout (ablation benches).
inline double MeasureProvingAtLayout(const Model& model, const PhysicalLayout& layout,
                                     PcsKind backend, uint64_t input_seed = 7) {
  ZkmlOptions options;
  options.backend = backend;
  CompiledModel compiled = CompileModelWithLayout(model, layout, options);
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, input_seed), model.quant);
  ZkmlProof proof = Prove(compiled, input);
  if (!Verify(compiled, proof)) {
    std::fprintf(stderr, "!! verification failed for %s\n", model.name.c_str());
  }
  return proof.prove_seconds;
}

// Default optimizer bounds shared by the benches: wide enough to matter,
// small enough to finish on a laptop.
inline ZkmlOptions BenchOptions(PcsKind backend) {
  ZkmlOptions options;
  options.backend = backend;
  options.optimizer.min_columns = 8;
  options.optimizer.max_columns = 32;
  options.optimizer.max_k = 15;
  return options;
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

inline std::string HumanTime(double seconds) {
  char buf[32];
  if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  }
  return buf;
}

}  // namespace zkml

#endif  // BENCH_BENCH_UTIL_H_
