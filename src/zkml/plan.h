// Plan-driven proving (paper §8: compile once, then prove and verify each
// input). A ProofPlan says how one proof lays its inferences out over
// circuits:
//   {1, 1}  one inference in one circuit (the single-circuit pipeline);
//   {k, 1}  one inference cut at layer boundaries into k sub-circuits
//           (src/compiler/partition.h), proved concurrently and stitched by
//           their boundary activations (DESIGN.md §13);
//   {1, N}  N inferences of the model laid out in one circuit
//           (BuildBatchedCircuit, DESIGN.md §14).
// Every plan compiles into a CompiledPlan, proves into one PlanProof, travels
// as one zkml.proof/v2 artifact and verifies through VerifyPlan, which defers
// the KZG opening claims of all its circuits into one accumulator check.
#ifndef SRC_ZKML_PLAN_H_
#define SRC_ZKML_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/cancel.h"
#include "src/base/status.h"
#include "src/compiler/partition.h"
#include "src/obs/run_report.h"
#include "src/zkml/zkml.h"

namespace zkml {

// How one proof lays its inferences out over circuits. At most one of the two
// counts exceeds 1.
struct ProofPlan {
  size_t shards = 1;  // circuits proving one inference
  size_t batch = 1;   // inferences proved by one circuit

  // Fr vectors the artifact stores: the shards+1 boundary activations of a
  // sharded plan, one [input ‖ output] segment per inference of a batch, and
  // none for {1,1}, whose statement is its one circuit's instance.
  size_t num_vectors() const { return shards > 1 ? shards + 1 : batch > 1 ? batch : 0; }
  std::string ToString() const;  // "{shards=2, batch=1}"
  bool operator==(const ProofPlan&) const = default;
};

// Shard count actually used for `requested`: 0 means auto (one shard per
// hardware thread), and any request is clamped to [1, MaxShards(model)].
size_t ResolveShardCount(const Model& model, size_t requested);

// The plan for a request of `shards` circuits and `batch` inferences, where 0
// and 1 both mean one. A shard request is clamped by ResolveShardCount (a graph
// with no legal cut falls back to one circuit). Asking for both sharded and
// batched proving is rejected. Resolving a resolved plan returns it unchanged.
StatusOr<ProofPlan> ResolveProofPlan(const Model& model, size_t shards, size_t batch);

// A plan with every circuit compiled (layout + keys). Circuits are held by
// shared_ptr so the serving cache can share them across jobs.
struct CompiledPlan {
  Model model;
  ProofPlan plan;
  ModelPartition partition;  // the cuts; empty unless plan.shards > 1
  std::vector<std::shared_ptr<const CompiledModel>> circuits;  // plan.shards of them
  double compile_seconds = 0;

  // The model circuit `index` proves: shard `index`, or the whole model.
  const Model& CircuitModel(size_t index) const {
    return plan.shards > 1 ? partition.shards[index].model : model;
  }
};

// Resolves `plan`, partitions the model when it is sharded (cost-balanced
// cuts), and compiles every circuit concurrently (CompileCircuit).
StatusOr<CompiledPlan> CompilePlan(const Model& model, const ProofPlan& plan,
                                   const ZkmlOptions& options = {});

// What the zkml.proof/v2 artifact carries.
struct PlanArtifact {
  ProofPlan plan;
  std::vector<std::vector<Fr>> vectors;      // plan.num_vectors() of them
  std::vector<std::vector<uint8_t>> proofs;  // one plonk proof per circuit
};

struct PlanProof {
  PlanArtifact artifact;
  // The public statement: every inference's [input ‖ output], in order.
  // Sharded plans claim exactly the single-circuit statement b_0 ‖ b_k.
  std::vector<Fr> instance;
  std::vector<Tensor<int64_t>> outputs_q;  // one per inference
  // A sharded plan's boundary chain and the wall clock of its concurrent
  // prove phase; else the one circuit's witness build and CreateProof.
  double witness_seconds = 0;
  double prove_seconds = 0;
  std::vector<double> circuit_prove_seconds;
  ProverMetrics prover_metrics;  // circuit 0's CreateProof
};

// Invoked (possibly from pool threads) each time a circuit's proof completes.
using PlanProgressFn = std::function<void(size_t circuits_done, size_t circuits_total)>;

// Proves `inputs_q` (plan.batch of them). A sharded plan first fixes every
// boundary activation by chaining the quantized executor, so all shards
// prove at once on the global ThreadPool.
StatusOr<PlanProof> ProvePlan(const CompiledPlan& compiled,
                              const std::vector<Tensor<int64_t>>& inputs_q,
                              const CancelToken* cancel = nullptr,
                              const PlanProgressFn& progress = nullptr);

// --- zkml.proof/v2 artifact ---
//   "ZKPL" | u32 version | u32 shards | u32 batch
//          | num_vectors x (u32 len, len Fr) | shards x (u32 len, proof bytes)
// Plan {1,1} is its raw plonk proof: bytes without the magic decode as it.
inline constexpr uint32_t kPlanProofVersion = 2;
std::vector<uint8_t> EncodePlanProof(const PlanArtifact& artifact);
StatusOr<PlanArtifact> DecodePlanProof(const std::vector<uint8_t>& bytes);

// Verifies an artifact against its statement, in order: the artifact's plan
// must be the key's; the stitch rule must hold (a sharded statement is
// b_0 ‖ b_k, a batch's the concatenation of its segments); then every
// circuit verifies, with all KZG opening claims deferred into one check.
// Rejections are stage-attributed and name the shard or inference at fault.
VerifyResult VerifyPlan(const CompiledPlan& compiled, const std::vector<Fr>& statement,
                        const PlanArtifact& artifact);
// Decodes `artifact` first; a malformed one is rejected at the stitch stage.
VerifyResult VerifyPlan(const CompiledPlan& compiled, const std::vector<Fr>& statement,
                        const std::vector<uint8_t>& artifact);

// The run's zkml.run_report/v2 document, one entry per circuit of the plan.
// A default PlanProof (an interrupted prove) reports the compile half only.
obs::RunReport BuildRunReport(const CompiledPlan& compiled, const PlanProof& proof,
                              double verify_seconds = 0.0);

// --- Cross-proof RLC verification ---

// One of K independent (vk, statement, proof) claims to verify together.
// Pointers are borrowed; they must outlive the VerifyProofsBatched call.
struct CrossProofClaim {
  const VerifyingKey* vk = nullptr;
  const Pcs* pcs = nullptr;
  const std::vector<Fr>* instance = nullptr;
  const std::vector<uint8_t>* proof = nullptr;
};

struct CrossProofVerdict {
  Status status;               // Ok iff every claim verified
  VerifyStage stage = VerifyStage::kAccepted;
  std::vector<size_t> blamed;  // indices of the claims blamed on rejection

  bool ok() const { return status.ok(); }
};

// Verifies K independent proofs, folding every KZG claim's final opening
// check into ONE RLC pairing check (KzgAccumulator with per-proof tags);
// non-KZG backends verify inline. On rejection the verdict blames the
// specific proof(s): transcript/evaluation failures are caught per proof,
// and an aggregate pairing failure re-checks each deferred claim to name
// the forged one. All KZG claims must come from setups sharing a trapdoor
// seed (true for every setup this repo creates with the same seed).
// VerifyPlan runs its circuits through the same loop.
CrossProofVerdict VerifyProofsBatched(const std::vector<CrossProofClaim>& claims);

}  // namespace zkml

#endif  // SRC_ZKML_PLAN_H_
