// Shared helpers for the two benchmark binaries: bench_paper regenerates the
// paper's evaluation tables (see DESIGN.md §3) and bench_primitives times the
// kernels. Absolute numbers differ from the paper (scaled models, laptop
// hardware) but relative structure should match.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/base/check.h"
#include "src/base/cpu_features.h"
#include "src/base/thread_pool.h"
#include "src/base/timer.h"
#include "src/layers/quant_executor.h"
#include "src/model/zoo.h"
#include "src/obs/json.h"
#include "src/zkml/plan.h"

namespace zkml {

// Writes `path` as {"host": {...}, <members> "<key>": [records]}, one record
// per line so successive dumps diff line by line, and reports the outcome on
// stderr. `members` is empty or ends in ",\n". The host stamp says where the
// numbers were measured: numbers from different CPUs are not comparable, and
// the CI regression gate compares CPU models before it checks absolute
// deltas. num_cpus is the machine (hardware_concurrency); affinity_cpus is
// what the process may schedule on and the pool sizes from.
inline bool WriteBenchJson(const char* path, const std::string& members, const char* key,
                           const std::vector<std::string>& records) {
  const CpuFeatures& cpu = CpuFeatures::Get();
  const unsigned hc = std::thread::hardware_concurrency();
  obs::Json host = obs::Json::Object();
  host.Set("cpu_model", cpu.cpu_model);
  host.Set("num_cpus", static_cast<uint64_t>(hc == 0 ? 1u : hc));
  host.Set("affinity_cpus", static_cast<uint64_t>(cpu.num_cpus));
  host.Set("simd", cpu.Summary());
  host.Set("git_sha", ZKML_GIT_SHA);
  host.Set("threads", static_cast<uint64_t>(ThreadPool::Global().num_threads()));
  std::FILE* f = std::fopen(path, "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"host\": %s,\n%s  \"%s\": [\n", host.Dump().c_str(), members.c_str(),
                 key);
    for (size_t i = 0; i < records.size(); ++i) {
      std::fprintf(f, "    %s%s\n", records[i].c_str(), i + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
  }
  const bool ok = f != nullptr && std::fclose(f) == 0;
  std::fprintf(stderr, ok ? "wrote %s\n" : "failed to write %s\n", path);
  return ok;
}

// Proofs that failed to verify in this process; bench_paper exits non-zero
// when any did.
inline int verify_failures = 0;

inline void NoteVerified(bool ok, const std::string& what) {
  if (!ok) {
    ++verify_failures;
    std::fprintf(stderr, "!! verification failed for %s\n", what.c_str());
  }
}

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
  double prove_seconds = 0;
  double verify_seconds = 0;
  size_t proof_bytes = 0;
  int columns = 0;
  int k = 0;
};

// Compile -> prove -> verify one model as plan {1,1} and collect the Table 6/7
// row. The per-stage prover metrics go to stderr, beside the tables.
inline E2eMeasurement MeasureEndToEnd(const Model& model, const ZkmlOptions& options) {
  E2eMeasurement m;
  const StatusOr<CompiledPlan> compiled = CompilePlan(model, {}, options);
  ZKML_CHECK_MSG(compiled.ok(), compiled.status().ToString().c_str());
  m.columns = compiled->circuits[0]->layout.num_columns;
  m.k = compiled->circuits[0]->layout.k;
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 7), model.quant);
  const StatusOr<PlanProof> proof = ProvePlan(*compiled, {input});
  ZKML_CHECK_MSG(proof.ok(), proof.status().ToString().c_str());
  m.prove_seconds = proof->prove_seconds;
  m.proof_bytes = EncodePlanProof(proof->artifact).size();
  std::fprintf(stderr, "%s prover stages:\n%s", model.name.c_str(),
               proof->prover_metrics.Summary().c_str());
  Timer verify_timer;
  const bool ok = VerifyPlan(*compiled, proof->instance, proof->artifact).ok();
  m.verify_seconds = verify_timer.ElapsedSeconds();
  NoteVerified(ok, model.name);
  MaybeWriteRunReport(BuildRunReport(*compiled, *proof, m.verify_seconds));
  return m;
}

// Measure proving at an explicit layout (ablation benches): compile once,
// then prove and verify `proves` times and keep the run with the median
// proving time. One proof alone swings with the first-run state of the
// caches and the pool.
inline E2eMeasurement MeasureProvingAtLayout(const Model& model, const PhysicalLayout& layout,
                                             PcsKind backend, int proves = 3) {
  ZkmlOptions options;
  options.backend = backend;
  CompiledModel compiled = CompileModelWithLayout(model, layout, options);
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 7), model.quant);
  std::vector<E2eMeasurement> runs;
  for (int i = 0; i < proves; ++i) {
    ZkmlProof proof = Prove(compiled, input);
    Timer verify_timer;
    NoteVerified(Verify(compiled, proof), model.name);
    runs.push_back({proof.prove_seconds, verify_timer.ElapsedSeconds(), proof.bytes.size(),
                    layout.num_columns, layout.k});
  }
  std::nth_element(runs.begin(), runs.begin() + proves / 2, runs.end(),
                   [](const E2eMeasurement& a, const E2eMeasurement& b) {
                     return a.prove_seconds < b.prove_seconds;
                   });
  return runs[static_cast<size_t>(proves / 2)];
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

}  // namespace zkml

#endif  // BENCH_BENCH_UTIL_H_
