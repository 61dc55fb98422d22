// Public API: compile an ML model to an optimized Plonkish circuit, produce
// ZK-SNARK proofs of its execution, and verify them. Mirrors the paper's
// two-stage user flow (§8): optimization (keys are model-specific) then
// proving (per input).
#ifndef SRC_ZKML_ZKML_H_
#define SRC_ZKML_ZKML_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/cancel.h"
#include "src/base/status.h"
#include "src/model/graph.h"
#include "src/obs/json.h"
#include "src/plonk/soundness.h"
#include "src/optimizer/optimizer.h"
#include "src/pcs/ipa.h"
#include "src/pcs/kzg.h"
#include "src/plonk/keygen.h"
#include "src/plonk/prover.h"
#include "src/plonk/verifier.h"

namespace zkml {

struct ZkmlOptions {
  PcsKind backend = PcsKind::kKzg;
  OptimizerOptions optimizer;  // backend field is overwritten by `backend`
  uint64_t setup_seed = 42;
};

// A model compiled to a concrete circuit layout with generated keys.
struct CompiledModel {
  Model model;
  PhysicalLayout layout;
  CostEstimate predicted_cost;
  std::shared_ptr<Pcs> pcs;
  ProvingKey pk;  // pk.vk is the verifying key
  double optimizer_seconds = 0;
  double keygen_seconds = 0;
};

// Runs the optimizer with the batch dimension threaded through layout
// simulation (whole-batch cost is ranked), builds the circuit, and generates
// keys: the one compile body behind CompileModel and every plan circuit. An
// infeasible layout is an error.
StatusOr<CompiledModel> CompileCircuit(const Model& model, size_t batch,
                                       const ZkmlOptions& options);
// CompileCircuit for one inference; aborts if no layout is feasible.
CompiledModel CompileModel(const Model& model, const ZkmlOptions& options = {});
// Skips the optimizer and uses an explicit layout (ablation experiments).
CompiledModel CompileModelWithLayout(const Model& model, const PhysicalLayout& layout,
                                     const ZkmlOptions& options = {});

struct ZkmlProof {
  std::vector<uint8_t> bytes;
  // Public statement: the instance column (input values then output values).
  std::vector<Fr> instance;
  Tensor<int64_t> output_q;
  double witness_seconds = 0;
  double prove_seconds = 0;
  // Per-stage wall time and FFT/MSM op counts for the CreateProof call.
  ProverMetrics prover_metrics;
};

// One circuit's proof over its inputs (one per inference it lays out).
struct CircuitProof {
  std::vector<uint8_t> bytes;
  std::vector<Fr> instance;  // every inference's [input ‖ output], in order
  std::vector<Tensor<int64_t>> outputs_q;
  double witness_seconds = 0;
  double prove_seconds = 0;
  ProverMetrics metrics;
};

// The one prove body: builds the witness of `inputs_q` (circuit.layout.batch
// of them) and runs CreateProof. `cancel` may be null; when it fires the call
// returns kCancelled / kDeadlineExceeded at the next checkpoint (before
// witness generation and between prover rounds) instead of running the proof
// to completion.
StatusOr<CircuitProof> ProveCircuit(const CompiledModel& circuit,
                                    const std::vector<Tensor<int64_t>>& inputs_q,
                                    const CancelToken* cancel);

// ProveCircuit for one inference, for long-lived callers (the proving
// daemon's deadline enforcement, the CLI's SIGINT handling).
StatusOr<ZkmlProof> ProveCancellable(const CompiledModel& compiled,
                                     const Tensor<int64_t>& input_q,
                                     const CancelToken* cancel);

// Produces a proof that `compiled.model` maps input_q to the returned output.
ZkmlProof Prove(const CompiledModel& compiled, const Tensor<int64_t>& input_q);

// Verifies a proof against its public statement, attributing any rejection to
// the stage that failed (see VerifyResult). Validates the instance length
// against the verifying key before entering the transcript: a wrong-sized
// instance vector is rejected up front rather than silently binding to a
// different statement.
VerifyResult VerifyDetailed(const VerifyingKey& vk, const Pcs& pcs,
                            const std::vector<Fr>& instance,
                            const std::vector<uint8_t>& proof_bytes);

// Thin boolean wrappers over VerifyDetailed.
bool Verify(const CompiledModel& compiled, const ZkmlProof& proof);
// Verifier-side entry point needing only the verifying key.
bool Verify(const VerifyingKey& vk, const Pcs& pcs, const std::vector<Fr>& instance,
            const std::vector<uint8_t>& proof_bytes);

// Constructs the PCS backend used by CompileModel (exposed for benchmarks),
// over the domain of size n = 2^k of the circuit it commits.
std::shared_ptr<Pcs> MakePcsBackend(PcsKind kind, size_t n, uint64_t seed);

// --- Soundness audit (the `zkml_cli audit` entry point). ---

struct SoundnessAuditOptions {
  uint64_t seed = 1;
  int mutations_per_cell = 4;
  // Also run the end-to-end forgery harness: prove honestly under both PCS
  // backends, then tamper the claimed output in the public statement and
  // require both verifiers to reject. Dominated by two keygens + four proof
  // verifications, so it is skippable for quick circuit-only audits.
  bool run_forgery = true;
  // Optional cooperative interruption (CLI SIGINT): the audit checks the
  // token between engines (compile, coverage, fuzz, each forgery backend)
  // and returns early with `interrupted` set instead of finishing.
  const CancelToken* cancel = nullptr;
};

struct SoundnessAudit {
  // True when the audit was cut short by its CancelToken; only the engines
  // that completed before the interrupt are populated, and Passed() returns
  // false (a partial audit is not a clean bill).
  bool interrupted = false;
  // The honest witness satisfies the circuit (precondition for the fuzzer;
  // reported so a completeness bug cannot masquerade as perfect soundness).
  bool witness_satisfied = false;
  CoverageReport coverage;
  MutationReport mutation;

  bool forgery_ran = false;
  bool honest_kzg_accepted = false;
  bool honest_ipa_accepted = false;
  bool forged_kzg_rejected = false;
  bool forged_ipa_rejected = false;

  // Everything held: witness satisfied, no dead gates/lookups, no surviving
  // mutants, and (when run) honest proofs accepted and forgeries rejected
  // under both backends.
  bool Passed() const;
  // The full "zkml.soundness/v1" document.
  obs::Json ToJson() const;
};

// Compiles the model, generates the witness for `input_q`, and runs all three
// soundness engines against it (coverage, mutation fuzzing, and — unless
// disabled — the output-forgery harness).
SoundnessAudit RunSoundnessAudit(const Model& model, const Tensor<int64_t>& input_q,
                                 const SoundnessAuditOptions& options = {});

}  // namespace zkml

#endif  // SRC_ZKML_ZKML_H_
