// The user-facing command-line interface (paper Fig. 3's "simple bash
// interface" and §8's standalone verifier): find the optimal circuit for a
// model, produce proofs, and verify them across process boundaries.
//
//   zkml_cli export <zoo-name> <model-file>          serialize a zoo model
//   zkml_cli inspect <model-file>                    print graph statistics
//   zkml_cli optimize <model-file> [kzg|ipa]         run the layout optimizer
//   zkml_cli profile <model-file> [kzg|ipa]          per-layer circuit resources
//   zkml_cli prove <model-file> <proof-file> [seed]  prove one inference
//   zkml_cli verify <model-file> <proof-file>        standalone verification
//   zkml_cli audit <model-file> [seed]               soundness audit: witness-
//                                                    mutation fuzzer, constraint
//                                                    coverage, forgery harness
//   zkml_cli telemetry-validate <json-file>          validate a telemetry file
//   zkml_cli telemetry-validate --prometheus <file>  validate a /metrics scrape
//
// Global telemetry flags (may appear anywhere on the command line):
//   --trace=<file>    write a Chrome/Perfetto trace of the whole command
//   --metrics=<file>  write the metrics registry (schema zkml.metrics/v1)
//   --report=<file>   prove: the run report (zkml.run_report/v2), one
//                     document for every plan, with an entry per circuit;
//                     profile: the profile as JSON (zkml.circuit_profile/v1);
//                     audit: soundness report (zkml.soundness/v1)
//   --shards=N        prove: N>1 cuts the model into cost-balanced shards
//                     proved concurrently (plan {N,1})
//   --batch=N         prove: N>1 proves N inferences (seeds seed..seed+N-1)
//                     in ONE circuit (plan {1,N}); the statement is the
//                     concatenated per-inference [input ‖ output] segments.
//                     --shards and --batch together are rejected (exit 1)
//
// Proof files carry the plan's zkml.proof/v2 artifact (a plan {1,1} proof is
// raw plonk bytes) plus the public statement; `verify` reads the plan from
// the artifact and rebuilds its verifying keys deterministically from the
// model file, so the verifier never sees the prover's witness.
//
// Exit codes (documented in README.md; model and proof files are untrusted,
// so every malformed input maps to an exit code, never an abort):
//   0  success ("verify": proof VALID; "audit": circuit SOUND)
//   1  usage error or filesystem failure (cannot read/write a file)
//   2  proof rejected ("verify": proof well-formed-or-not but INVALID;
//      "audit": a soundness violation — surviving mutant, dead gate/lookup,
//      or an accepted forgery)
//   3  malformed input (model file or proof file failed to parse/validate)
//   4  interrupted (SIGINT/SIGTERM during prove or audit: the command stops
//      at the next cancellation checkpoint, writes whatever partial report
//      was requested, and exits without producing the proof)
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/layers/quant_executor.h"
#include "src/model/float_executor.h"
#include "src/model/serialize.h"
#include "src/model/shape_inference.h"
#include "src/model/zoo.h"
#include "src/obs/circuit_profile.h"
#include "src/obs/exposition.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/plonk/proof_io.h"
#include "src/zkml/plan.h"

namespace zkml {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitInvalidProof = 2;
constexpr int kExitMalformedInput = 3;
constexpr int kExitInterrupted = 4;

// Flipped by the SIGINT/SIGTERM handler; prove and audit poll it at their
// cancellation checkpoints (CancelToken::Cancel is async-signal-safe).
CancelToken g_interrupt;

void OnInterrupt(int) { g_interrupt.Cancel(); }

// Installed only for the long-running commands (prove, audit): a handler that
// merely sets a flag would turn Ctrl-C into a no-op for commands that never
// poll the token.
void InstallInterruptHandler() {
  struct sigaction sa = {};
  sa.sa_handler = OnInterrupt;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

// Loads a model file, printing the parse error and mapping it to the exit
// code contract. Returns false (with *exit_code set) on failure.
bool LoadModelOrReport(const std::string& path, Model* model, int* exit_code) {
  StatusOr<Model> loaded = LoadModelFromFile(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error loading %s: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    *exit_code = loaded.status().code() == StatusCode::kIoError ? kExitUsage
                                                                : kExitMalformedInput;
    return false;
  }
  *model = std::move(loaded).value();
  return true;
}

ZkmlOptions CliOptions(PcsKind backend) {
  ZkmlOptions options;
  options.backend = backend;
  options.optimizer.min_columns = 8;
  options.optimizer.max_columns = 32;
  options.optimizer.max_k = 15;
  return options;
}

// Proof file: u32 proof length, proof bytes, u32 instance length, instances.
// The proof-bytes slot holds a zkml.proof/v2 artifact (raw plonk bytes for
// plan {1,1}).
bool WriteProofFile(const std::string& path, const std::vector<uint8_t>& bytes,
                    const std::vector<Fr>& instance) {
  std::vector<uint8_t> blob;
  for (int i = 0; i < 4; ++i) {
    blob.push_back(static_cast<uint8_t>(bytes.size() >> (8 * i)));
  }
  blob.insert(blob.end(), bytes.begin(), bytes.end());
  for (int i = 0; i < 4; ++i) {
    blob.push_back(static_cast<uint8_t>(instance.size() >> (8 * i)));
  }
  for (const Fr& v : instance) {
    ProofAppendFr(&blob, v);
  }
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(blob.data()), static_cast<std::streamsize>(blob.size()));
  return static_cast<bool>(out);
}

Status ReadProofFile(const std::string& path, std::vector<uint8_t>* proof,
                     std::vector<Fr>* instance) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return IoError("cannot open proof file: " + path);
  }
  std::vector<uint8_t> blob((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  size_t off = 0;
  uint32_t len = 0;
  ZKML_RETURN_IF_ERROR(ProofReadU32(blob, &off, &len, "proof length"));
  if (len > blob.size() - off) {
    return MalformedProofError("declared proof length " + std::to_string(len) +
                               " exceeds remaining file size " + std::to_string(blob.size() - off));
  }
  proof->assign(blob.begin() + static_cast<long>(off), blob.begin() + static_cast<long>(off + len));
  off += len;
  uint32_t n_inst = 0;
  ZKML_RETURN_IF_ERROR(ProofReadU32(blob, &off, &n_inst, "instance count"));
  // Length sanity before allocating: each instance value takes 32 bytes.
  if (static_cast<size_t>(n_inst) > (blob.size() - off) / kProofFrSize) {
    return MalformedProofError("declared instance count " + std::to_string(n_inst) +
                               " exceeds remaining file size");
  }
  instance->resize(n_inst);
  for (uint32_t i = 0; i < n_inst; ++i) {
    const std::string what = "instance value " + std::to_string(i);
    ZKML_RETURN_IF_ERROR(ProofReadFr(blob, &off, &(*instance)[i], what.c_str()));
  }
  return ProofExpectEnd(blob, off);
}

int CmdExport(const std::string& name, const std::string& path) {
  const Model model = MakeZooModel(name);
  if (!SaveModelToFile(model, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return kExitUsage;
  }
  std::printf("wrote %s (%lld parameters, %zu ops)\n", path.c_str(),
              static_cast<long long>(model.NumParameters()), model.ops.size());
  return kExitOk;
}

int CmdInspect(const std::string& path) {
  Model model;
  int exit_code = kExitOk;
  if (!LoadModelOrReport(path, &model, &exit_code)) {
    return exit_code;
  }
  const std::vector<Shape> shapes = InferShapes(model);
  std::printf("model %s: input %s, %lld parameters, ~%lld flops, quant sf=2^%d tables=2^%d\n",
              model.name.c_str(), model.input_shape.ToString().c_str(),
              static_cast<long long>(model.NumParameters()),
              static_cast<long long>(model.ApproxFlops()), model.quant.sf_bits,
              model.quant.table_bits);
  for (const Op& op : model.ops) {
    std::printf("  %-18s -> tensor %d %s\n", OpTypeName(op.type), op.output,
                shapes[static_cast<size_t>(op.output)].ToString().c_str());
  }
  return kExitOk;
}

int CmdOptimize(const std::string& path, PcsKind backend) {
  Model model;
  int exit_code = kExitOk;
  if (!LoadModelOrReport(path, &model, &exit_code)) {
    return exit_code;
  }
  OptimizerOptions opts = CliOptions(backend).optimizer;
  opts.backend = backend;
  const OptimizerResult result = OptimizeLayout(model, HardwareProfile::Cached(), opts);
  std::printf("optimal layout: %d columns x 2^%d rows (%zu plans in %.2fs)\n",
              result.best.layout.num_columns, result.best.layout.k, result.plans_evaluated,
              result.optimizer_seconds);
  std::printf("  gadgets: bias-chaining=%d relu-lookup=%d packed-arith=%d\n",
              result.best.layout.gadgets.dot_bias_chaining,
              result.best.layout.gadgets.relu_lookup, result.best.layout.gadgets.packed_arith);
  std::printf("  predicted proving: %.2fs (%zu FFTs, %zu MSMs); predicted proof: %zu bytes\n",
              result.best.cost.total_seconds, result.best.cost.n_ffts, result.best.cost.n_msms,
              result.best.proof_size_bytes);
  return kExitOk;
}

// Prove: --shards=N cuts the model into N cost-balanced circuits proved
// concurrently; --batch=N proves N inferences (seeds seed..seed+N-1) in one
// circuit. The proof file's proof-bytes slot holds the plan's artifact and
// the instance slot its statement, so `verify` works on every plan.
int CmdProve(const std::string& model_path, const std::string& proof_path, uint64_t seed,
             PcsKind backend, const std::string& report_path, int shards, int batch) {
  Model model;
  int exit_code = kExitOk;
  if (!LoadModelOrReport(model_path, &model, &exit_code)) {
    return exit_code;
  }
  const StatusOr<ProofPlan> plan = ResolveProofPlan(model, static_cast<size_t>(std::max(shards, 0)),
                                                    static_cast<size_t>(std::max(batch, 0)));
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return kExitUsage;
  }
  const StatusOr<CompiledPlan> compiled = CompilePlan(model, *plan, CliOptions(backend));
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", compiled.status().ToString().c_str());
    return kExitMalformedInput;
  }
  std::vector<Tensor<int64_t>> inputs_q;
  for (size_t i = 0; i < plan->batch; ++i) {
    inputs_q.push_back(QuantizeTensor(SyntheticInput(model, seed + i), model.quant));
  }
  const auto write_report = [&](const PlanProof& proof) {
    std::ofstream out(report_path);
    out << BuildRunReport(*compiled, proof).ToJson().DumpPretty() << "\n";
    return static_cast<bool>(out);
  };
  StatusOr<PlanProof> proof = ProvePlan(*compiled, inputs_q, &g_interrupt);
  if (!proof.ok()) {
    std::fprintf(stderr, "prove failed: %s\n", proof.status().ToString().c_str());
    if (proof.status().code() != StatusCode::kCancelled &&
        proof.status().code() != StatusCode::kDeadlineExceeded) {
      return kExitUsage;
    }
    // Interrupted mid-proof: no proof file, but the partial report (the
    // compile/layout half of the run) still lands if one was requested.
    if (!report_path.empty() && write_report(PlanProof{})) {
      std::printf("partial report -> %s\n", report_path.c_str());
    }
    return kExitInterrupted;
  }
  const std::vector<uint8_t> artifact = EncodePlanProof(proof->artifact);
  if (!WriteProofFile(proof_path, artifact, proof->instance)) {
    std::fprintf(stderr, "cannot write %s\n", proof_path.c_str());
    return kExitUsage;
  }
  if (!report_path.empty()) {
    if (!write_report(*proof)) {
      std::fprintf(stderr, "cannot write report %s\n", report_path.c_str());
      return kExitUsage;
    }
    std::printf("report -> %s\n", report_path.c_str());
  }
  std::printf("proved %s, plan %s, on input seed %llu in %.2fs (witness %.2fs): "
              "%zu proof bytes -> %s\n",
              model.name.c_str(), plan->ToString().c_str(),
              static_cast<unsigned long long>(seed), proof->prove_seconds,
              proof->witness_seconds, artifact.size(), proof_path.c_str());
  return kExitOk;
}

int CmdProfile(const std::string& path, PcsKind backend, const std::string& report_path) {
  Model model;
  int exit_code = kExitOk;
  if (!LoadModelOrReport(path, &model, &exit_code)) {
    return exit_code;
  }
  OptimizerOptions opts = CliOptions(backend).optimizer;
  opts.backend = backend;
  const OptimizerResult result = OptimizeLayout(model, HardwareProfile::Cached(), opts);
  const obs::CircuitProfile profile = obs::ProfileCircuit(model, result.best.layout);
  std::printf("%s", profile.ToTable().c_str());
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    out << profile.ToJson().DumpPretty() << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
      return kExitUsage;
    }
    std::printf("circuit profile -> %s\n", report_path.c_str());
  }
  return kExitOk;
}

int CmdAudit(const std::string& model_path, uint64_t seed, const std::string& report_path) {
  Model model;
  int exit_code = kExitOk;
  if (!LoadModelOrReport(model_path, &model, &exit_code)) {
    return exit_code;
  }
  SoundnessAuditOptions options;
  options.seed = seed;
  options.cancel = &g_interrupt;
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, seed), model.quant);
  const SoundnessAudit audit = RunSoundnessAudit(model, input, options);

  std::printf("witness satisfied: %s\n", audit.witness_satisfied ? "yes" : "NO");
  std::printf("coverage: %zu gates (%llu dead), %zu lookups (%llu dead)\n",
              audit.coverage.gates.size(),
              static_cast<unsigned long long>(audit.coverage.dead_gates),
              audit.coverage.lookups.size(),
              static_cast<unsigned long long>(audit.coverage.dead_lookups));
  std::printf("mutation: %llu cells fuzzed (seed %llu, %llu exempt as padding, %llu as free "
              "witness), %llu/%llu mutants detected\n",
              static_cast<unsigned long long>(audit.mutation.cells_fuzzed),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(audit.mutation.cells_unassigned),
              static_cast<unsigned long long>(audit.mutation.cells_free_witness),
              static_cast<unsigned long long>(audit.mutation.mutants_detected),
              static_cast<unsigned long long>(audit.mutation.mutants_tried));
  for (const SurvivingMutant& s : audit.mutation.survivors) {
    std::printf("  SURVIVOR: %s\n", s.description.c_str());
  }
  for (const GateCoverage& g : audit.coverage.gates) {
    if (g.active_rows == 0) {
      std::printf("  DEAD GATE: '%s' has no active row\n", g.name.c_str());
    }
  }
  for (const LookupCoverage& l : audit.coverage.lookups) {
    if (l.active_rows == 0) {
      std::printf("  DEAD LOOKUP: '%s' has no active row\n", l.name.c_str());
    }
  }
  if (audit.forgery_ran) {
    std::printf("forgery: honest kzg=%s ipa=%s accepted; forged kzg=%s ipa=%s rejected\n",
                audit.honest_kzg_accepted ? "yes" : "NO", audit.honest_ipa_accepted ? "yes" : "NO",
                audit.forged_kzg_rejected ? "yes" : "NO", audit.forged_ipa_rejected ? "yes" : "NO");
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    out << audit.ToJson().DumpPretty() << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
      return kExitUsage;
    }
    std::printf("soundness report -> %s\n", report_path.c_str());
  }
  if (audit.interrupted) {
    // The report above is the partial audit (engines that ran to completion).
    std::printf("INTERRUPTED (partial audit — not a clean bill)\n");
    return kExitInterrupted;
  }
  std::printf(audit.Passed() ? "SOUND\n" : "UNSOUND\n");
  return audit.Passed() ? kExitOk : kExitInvalidProof;
}

// The zkml.* telemetry schemas this program emits; telemetry-validate
// rejects any other.
constexpr const char* kTelemetrySchemas[] = {
    "zkml.run_report/v2", "zkml.metrics/v1",  "zkml.trace/v1",   "zkml.circuit_profile/v1",
    "zkml.soundness/v1",  "zkml.loadgen/v1",  "zkml.statusz/v1", "zkml.tracez/v1",
};

// Validates a telemetry JSON file: must parse strictly and be either a Chrome
// trace (object with a traceEvents array) or a document of one of
// kTelemetrySchemas.
int CmdTelemetryValidate(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return kExitUsage;
  }
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  StatusOr<obs::Json> parsed = obs::Json::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return kExitMalformedInput;
  }
  const obs::Json& j = parsed.value();
  if (const obs::Json* events = j.Find("traceEvents"); events != nullptr && events->is_array()) {
    std::printf("%s: valid chrome trace (%zu events)\n", path.c_str(), events->size());
    return kExitOk;
  }
  if (const obs::Json* schema = j.Find("schema"); schema != nullptr && schema->is_string() &&
                                                  schema->AsString().rfind("zkml.", 0) == 0) {
    const std::string& name = schema->AsString();
    if (std::find(std::begin(kTelemetrySchemas), std::end(kTelemetrySchemas), name) ==
        std::end(kTelemetrySchemas)) {
      std::fprintf(stderr, "%s: unknown telemetry schema %s\n", path.c_str(), name.c_str());
      return kExitMalformedInput;
    }
    // Run reports must also parse as one: a plan, and one circuit per shard.
    if (name == "zkml.run_report/v2") {
      if (StatusOr<obs::RunReport> report = obs::RunReport::FromJson(j); !report.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), report.status().ToString().c_str());
        return kExitMalformedInput;
      }
    }
    std::printf("%s: valid telemetry document (schema %s)\n", path.c_str(), name.c_str());
    return kExitOk;
  }
  std::fprintf(stderr, "%s: JSON is neither a chrome trace nor a zkml.* schema document\n",
               path.c_str());
  return kExitMalformedInput;
}

// Validates a Prometheus text-exposition page (a /metrics scrape saved to a
// file) with the same strict parser zkml_loadgen uses, and prints a summary.
int CmdTelemetryValidatePrometheus(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return kExitUsage;
  }
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  StatusOr<obs::PromText> page = obs::ParsePrometheusText(text);
  if (!page.ok()) {
    std::fprintf(stderr, "%s: invalid Prometheus exposition: %s\n", path.c_str(),
                 page.status().ToString().c_str());
    return kExitMalformedInput;
  }
  // Histogram invariant: every _count sample must equal its le="+Inf" bucket.
  for (const auto& [name, type] : page->types) {
    if (type != "histogram") continue;
    const obs::PromSample* inf = page->Find(name + "_bucket", "le", "+Inf");
    const obs::PromSample* count = page->Find(name + "_count");
    if (inf == nullptr || count == nullptr || inf->value != count->value) {
      std::fprintf(stderr, "%s: histogram %s: le=\"+Inf\" bucket disagrees with _count\n",
                   path.c_str(), name.c_str());
      return kExitMalformedInput;
    }
  }
  std::printf("%s: valid Prometheus exposition (%zu samples, %zu TYPE declarations)\n",
              path.c_str(), page->samples.size(), page->types.size());
  return kExitOk;
}

int CmdVerify(const std::string& model_path, const std::string& proof_path, PcsKind backend) {
  Model model;
  int exit_code = kExitOk;
  if (!LoadModelOrReport(model_path, &model, &exit_code)) {
    return exit_code;
  }
  std::vector<uint8_t> proof;
  std::vector<Fr> instance;
  if (Status s = ReadProofFile(proof_path, &proof, &instance); !s.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", proof_path.c_str(), s.ToString().c_str());
    return s.code() == StatusCode::kIoError ? kExitUsage : kExitMalformedInput;
  }
  // The artifact names its plan (bytes without the envelope magic are a
  // plan {1,1} proof). The verifier recompiles that plan deterministically
  // (same optimizer + setup seed), obtaining the verifying keys the prover
  // used — no witness involved. A lying plan fails VerifyPlan's plan check.
  const StatusOr<PlanArtifact> artifact = DecodePlanProof(proof);
  if (!artifact.ok()) {
    std::fprintf(stderr, "error decoding %s: %s\n", proof_path.c_str(),
                 artifact.status().ToString().c_str());
    return kExitMalformedInput;
  }
  const StatusOr<CompiledPlan> compiled = CompilePlan(model, artifact->plan, CliOptions(backend));
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", compiled.status().ToString().c_str());
    return kExitMalformedInput;
  }
  const VerifyResult result = VerifyPlan(*compiled, instance, *artifact);
  if (!result.ok()) {
    std::printf("INVALID (%s)\n", result.ToString().c_str());
    return kExitInvalidProof;
  }
  std::printf("VALID (plan %s)\n", compiled->plan.ToString().c_str());
  return kExitOk;
}

}  // namespace
}  // namespace zkml

namespace zkml {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: zkml_cli [--trace=<f>] [--metrics=<f>] [--report=<f>] <command>\n"
               "       zkml_cli export <zoo-name> <model-file>\n"
               "       zkml_cli inspect <model-file>\n"
               "       zkml_cli optimize <model-file> [kzg|ipa]\n"
               "       zkml_cli profile <model-file> [kzg|ipa]\n"
               "       zkml_cli prove [--shards=N|--batch=N] <model-file> <proof-file> [seed] "
               "[kzg|ipa]\n"
               "       zkml_cli verify <model-file> <proof-file> [kzg|ipa]\n"
               "       zkml_cli audit <model-file> [seed]\n"
               "       zkml_cli telemetry-validate [--prometheus] <file>\n");
  return kExitUsage;
}

int Dispatch(const std::vector<std::string>& args, const std::string& report_path,
             bool prometheus, int shards, int batch) {
  if (args.size() < 2) {
    return Usage();
  }
  const std::string& cmd = args[0];
  auto backend_arg = [&](size_t index, PcsKind fallback) {
    if (args.size() > index && args[index] == "ipa") {
      return PcsKind::kIpa;
    }
    if (args.size() > index && args[index] == "kzg") {
      return PcsKind::kKzg;
    }
    return fallback;
  };
  if (cmd == "export" && args.size() >= 3) {
    return CmdExport(args[1], args[2]);
  }
  if (cmd == "inspect") {
    return CmdInspect(args[1]);
  }
  if (cmd == "optimize") {
    return CmdOptimize(args[1], backend_arg(2, PcsKind::kKzg));
  }
  if (cmd == "profile") {
    return CmdProfile(args[1], backend_arg(2, PcsKind::kKzg), report_path);
  }
  if (cmd == "prove" && args.size() >= 3) {
    InstallInterruptHandler();
    const uint64_t seed = args.size() > 3 ? std::strtoull(args[3].c_str(), nullptr, 10) : 7;
    return CmdProve(args[1], args[2], seed, backend_arg(4, PcsKind::kKzg), report_path, shards,
                    batch);
  }
  if (cmd == "verify" && args.size() >= 3) {
    return CmdVerify(args[1], args[2], backend_arg(3, PcsKind::kKzg));
  }
  if (cmd == "audit") {
    InstallInterruptHandler();
    const uint64_t seed = args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 10) : 7;
    return CmdAudit(args[1], seed, report_path);
  }
  if (cmd == "telemetry-validate") {
    return prometheus ? CmdTelemetryValidatePrometheus(args[1]) : CmdTelemetryValidate(args[1]);
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return kExitUsage;
}

}  // namespace
}  // namespace zkml

int main(int argc, char** argv) {
  using namespace zkml;
  // Telemetry flags may appear anywhere; everything else is positional.
  std::string trace_path, metrics_path, report_path;
  bool prometheus = false;
  int shards = 0;
  int batch = 0;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = std::atoi(arg.substr(9).c_str());
    } else if (arg.rfind("--batch=", 0) == 0) {
      batch = std::atoi(arg.substr(8).c_str());
    } else if (arg == "--prometheus") {
      prometheus = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return Usage();
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) {
    return Usage();
  }

  obs::Tracer tracer;
  int code;
  {
    // The scope must close before export so every span has ended.
    obs::TracerScope scope(trace_path.empty() ? nullptr : &tracer);
    code = Dispatch(args, report_path, prometheus, shards, batch);
  }
  if (!trace_path.empty()) {
    if (Status s = tracer.WriteChromeTrace(trace_path); !s.ok()) {
      std::fprintf(stderr, "cannot write trace %s: %s\n", trace_path.c_str(),
                   s.ToString().c_str());
      if (code == kExitOk) {
        code = kExitUsage;
      }
    } else {
      std::fprintf(stderr, "trace (%zu spans) -> %s\n", tracer.Records().size(),
                   trace_path.c_str());
    }
  }
  if (!metrics_path.empty()) {
    obs::PublishThreadPoolStats(obs::MetricsRegistry::Global(), ThreadPool::Global());
    if (Status s = obs::MetricsRegistry::Global().WriteFile(metrics_path); !s.ok()) {
      std::fprintf(stderr, "cannot write metrics %s: %s\n", metrics_path.c_str(),
                   s.ToString().c_str());
      if (code == kExitOk) {
        code = kExitUsage;
      }
    } else {
      std::fprintf(stderr, "metrics -> %s\n", metrics_path.c_str());
    }
  }
  return code;
}
