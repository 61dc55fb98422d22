#include "src/zkml/plan.h"

#include <atomic>
#include <optional>
#include <thread>

#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/base/timer.h"
#include "src/compiler/compiler.h"
#include "src/layers/quant_executor.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/plonk/proof_io.h"
#include "src/plonk/prover.h"

namespace zkml {
namespace {

// "ZKPL" read as a little-endian u32.
constexpr uint32_t kPlanProofMagic = 0x4c504b5a;

// The instance encoding the circuit builder uses: one field element per
// activation value, inputs first.
std::vector<Fr> ToFr(const Tensor<int64_t>& t) {
  std::vector<Fr> out;
  out.reserve(static_cast<size_t>(t.NumElements()));
  for (int64_t v : t.ToVector()) {
    out.push_back(Fr::FromInt64(v));
  }
  return out;
}

// Runs fn(0), ..., fn(n-1) concurrently on the global pool, fn(0) on the
// calling thread: a one-circuit plan runs inline, as a single proof does.
template <typename Fn>
void ForEachCircuit(size_t n, const Fn& fn) {
  TaskGroup group;
  for (size_t i = 1; i < n; ++i) {
    group.Submit([&fn, i] { fn(i); });
  }
  fn(0);
  group.Wait();
}

// Prefixes `status` with the claim it belongs to ("shard 1/2: ..."); a lone
// circuit (empty unit) needs no name.
Status Blame(const std::string& unit, size_t index, size_t count, const Status& status) {
  if (unit.empty()) {
    return status;
  }
  return Status(status.code(), unit + " " + std::to_string(index) + "/" + std::to_string(count) +
                                   ": " + status.message());
}

// The one deferred-claims loop: each claim's transcript is verified inline,
// its KZG opening claims are deferred into one accumulator, and the
// accumulator is checked once at the end. Rejections name the claim as
// "<unit> i/K".
CrossProofVerdict VerifyClaims(const std::vector<CrossProofClaim>& claims,
                               const std::string& unit) {
  CrossProofVerdict verdict;
  if (claims.empty()) {
    verdict.status = InvalidArgumentError("verify: no claims");
    verdict.stage = VerifyStage::kInstance;
    return verdict;
  }
  const size_t n = claims.size();
  KzgAccumulator accumulator;
  std::shared_ptr<const KzgSetup> setup;
  for (size_t j = 0; j < n; ++j) {
    const CrossProofClaim& c = claims[j];
    if (c.vk == nullptr || c.pcs == nullptr || c.instance == nullptr || c.proof == nullptr) {
      verdict.status = Blame(unit, j, n, InvalidArgumentError("claim is incomplete"));
      verdict.stage = VerifyStage::kInstance;
      verdict.blamed.push_back(j);
      return verdict;
    }
    VerifyResult result;
    if (const auto* kzg = dynamic_cast<const KzgPcs*>(c.pcs)) {
      setup = kzg->shared_setup();
      accumulator.SetTag(j);
      KzgPcs deferred(setup, &accumulator);
      result = VerifyDetailed(*c.vk, deferred, *c.instance, *c.proof);
    } else {
      result = VerifyDetailed(*c.vk, *c.pcs, *c.instance, *c.proof);
    }
    if (!result.ok()) {
      // Transcript/evaluation failures are inherently per-proof, so blame is
      // immediate — no aggregate check needed to localize it.
      verdict.status = Blame(unit, j, n, result.status);
      verdict.stage = result.stage;
      verdict.blamed.push_back(j);
      return verdict;
    }
  }
  if (accumulator.size() > 0) {
    const Status status = accumulator.Check(*setup, &verdict.blamed);
    if (!status.ok()) {
      verdict.status =
          verdict.blamed.size() == 1 ? Blame(unit, verdict.blamed[0], n, status) : status;
      verdict.stage = VerifyStage::kAggregate;
      return verdict;
    }
  }
  verdict.status = Status::Ok();
  return verdict;
}

// One circuit's proof over its inputs (one per inference it lays out).
struct CircuitProof {
  std::vector<uint8_t> bytes;
  std::vector<Fr> instance;
  std::vector<Tensor<int64_t>> outputs_q;
  double witness_seconds = 0;
  double prove_seconds = 0;
  ProverMetrics metrics;
};

StatusOr<CircuitProof> ProveCircuit(const CompiledModel& circuit,
                                    const std::vector<Tensor<int64_t>>& inputs_q,
                                    const CancelToken* cancel) {
  ZKML_RETURN_IF_ERROR(CheckCancel(cancel, "witness-gen"));
  CircuitProof out;
  Timer witness_timer;
  BuiltBatchedCircuit built = [&] {
    obs::Span span(inputs_q.size() > 1 ? "batched-witness-gen" : "witness-gen");
    return BuildBatchedCircuit(circuit.model, circuit.layout, inputs_q);
  }();
  out.witness_seconds = witness_timer.ElapsedSeconds();
  out.outputs_q = std::move(built.outputs_q);
  const Assignment& asn = built.builder->assignment();
  const std::vector<Fr>& inst = asn.instance()[0];
  out.instance.assign(inst.begin(), inst.begin() + built.num_instance_rows);

  Timer prove_timer;
  ZKML_ASSIGN_OR_RETURN(out.bytes, CreateProofCancellable(circuit.pk, *circuit.pcs, asn, cancel,
                                                          &out.metrics));
  out.prove_seconds = prove_timer.ElapsedSeconds();
  obs::MetricsRegistry::Global().gauge("prover.measured_prove_seconds").Set(out.prove_seconds);
  return out;
}

// Applies the plan's stitch rule: checks `statement` against the artifact's
// vectors and fills the instance each circuit is verified against.
VerifyResult Stitch(const CompiledPlan& compiled, const std::vector<Fr>& statement,
                    const PlanArtifact& artifact, std::vector<std::vector<Fr>>* instances) {
  const ProofPlan& plan = compiled.plan;
  const std::vector<std::vector<Fr>>& v = artifact.vectors;
  if (plan.shards > 1) {
    // The statement is b_0 ‖ b_k; shard i proves [b_i ‖ b_{i+1}], so adjacent
    // shards read the one stored copy of the activation they share.
    const std::vector<Fr>& b_in = v.front();
    const std::vector<Fr>& b_out = v.back();
    if (statement.size() != b_in.size() + b_out.size()) {
      return VerifyResult::Rejected(
          VerifyStage::kInstance,
          InvalidArgumentError("statement has " + std::to_string(statement.size()) +
                               " values, artifact boundaries need " +
                               std::to_string(b_in.size() + b_out.size())));
    }
    for (size_t j = 0; j < statement.size(); ++j) {
      const Fr& want = j < b_in.size() ? b_in[j] : b_out[j - b_in.size()];
      if (!(statement[j] == want)) {
        return VerifyResult::Rejected(
            VerifyStage::kStitch,
            VerifyFailedError("artifact " + std::string(j < b_in.size() ? "input" : "output") +
                              " boundary disagrees with the public statement at element " +
                              std::to_string(j)));
      }
    }
    for (size_t i = 0; i < plan.shards; ++i) {
      std::vector<Fr>& inst = instances->emplace_back(v[i]);
      inst.insert(inst.end(), v[i + 1].begin(), v[i + 1].end());
    }
    return VerifyResult::Accepted();
  }
  // One circuit proves the whole statement, which must be the concatenation
  // of the stored segments: a disagreement names the inference. (A lie
  // consistent between artifact and statement still fails in the circuit's
  // verifier — the transcript binds the instance.)
  const size_t rows = compiled.circuits[0]->pk.vk.num_instance_rows;
  if (statement.size() != rows) {
    return VerifyResult::Rejected(
        VerifyStage::kInstance,
        InvalidArgumentError("statement has " + std::to_string(statement.size()) +
                             " values, verifying key expects " + std::to_string(rows)));
  }
  // Every inference lowers identically, so the segments are equal slices.
  const size_t seg = rows / plan.batch;
  for (size_t i = 0; i < v.size(); ++i) {
    const std::string who = "inference " + std::to_string(i) + ": ";
    if (v[i].size() != seg) {
      return VerifyResult::Rejected(
          VerifyStage::kStitch,
          InvalidArgumentError(who + "artifact segment has " + std::to_string(v[i].size()) +
                               " values, layout fixes " + std::to_string(seg)));
    }
    for (size_t j = 0; j < seg; ++j) {
      if (!(statement[i * seg + j] == v[i][j])) {
        return VerifyResult::Rejected(
            VerifyStage::kStitch,
            VerifyFailedError(who + "statement disagrees with the proven instance at element " +
                              std::to_string(j)));
      }
    }
  }
  instances->push_back(statement);
  return VerifyResult::Accepted();
}

obs::Json ShardedReportJson(const CompiledPlan& compiled, const PlanProof& proof,
                            double verify_seconds) {
  const CompiledModel& first = *compiled.circuits[0];
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", kShardedProofSchema);
  doc.Set("model", compiled.model.name);
  doc.Set("backend", first.pcs->kind() == PcsKind::kKzg ? "kzg" : "ipa");
  doc.Set("num_shards", static_cast<uint64_t>(compiled.plan.shards));
  doc.Set("compile_seconds", compiled.compile_seconds);
  doc.Set("witness_seconds", proof.witness_seconds);
  doc.Set("prove_wall_seconds", proof.prove_seconds);
  double sum = 0, max = 0;
  for (double s : proof.circuit_prove_seconds) {
    sum += s;
    max = std::max(max, s);
  }
  doc.Set("prove_cpu_seconds", sum);
  doc.Set("max_shard_prove_seconds", max);
  doc.Set("verify_seconds", verify_seconds);
  doc.Set("proof_bytes", static_cast<uint64_t>(EncodePlanProof(proof.artifact).size()));
  // Boundary i is shard i's input; the last is what remains of the last
  // shard's [input ‖ output] statement.
  const size_t k = compiled.plan.shards;
  obs::Json boundaries = obs::Json::Array();
  for (size_t i = 0; i < k; ++i) {
    boundaries.Append(static_cast<uint64_t>(compiled.CircuitModel(i).input_shape.NumElements()));
  }
  boundaries.Append(static_cast<uint64_t>(
      compiled.circuits[k - 1]->pk.vk.num_instance_rows -
      static_cast<size_t>(compiled.CircuitModel(k - 1).input_shape.NumElements())));
  doc.Set("boundary_elements", std::move(boundaries));
  obs::Json shards = obs::Json::Array();
  for (size_t i = 0; i < k; ++i) {
    const CompiledModel& shard = *compiled.circuits[i];
    obs::Json s = obs::Json::Object();
    s.Set("name", shard.model.name);
    s.Set("k", static_cast<uint64_t>(shard.layout.k));
    s.Set("num_columns", static_cast<uint64_t>(shard.layout.num_columns));
    s.Set("rows_used", static_cast<uint64_t>(shard.layout.rows_used));
    s.Set("flops", static_cast<uint64_t>(compiled.partition.shards[i].flops));
    if (i < proof.circuit_prove_seconds.size()) {
      s.Set("prove_seconds", proof.circuit_prove_seconds[i]);
    }
    if (i < proof.artifact.proofs.size()) {
      s.Set("proof_bytes", static_cast<uint64_t>(proof.artifact.proofs[i].size()));
    }
    shards.Append(std::move(s));
  }
  doc.Set("shards", std::move(shards));
  return doc;
}

obs::Json BatchedReportJson(const CompiledPlan& compiled, const PlanProof& proof,
                            double verify_seconds) {
  const CompiledModel& cm = *compiled.circuits[0];
  const size_t batch = compiled.plan.batch;
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", kBatchedProofSchema);
  doc.Set("model", cm.model.name);
  doc.Set("backend", cm.pcs->kind() == PcsKind::kKzg ? "kzg" : "ipa");
  doc.Set("batch", static_cast<uint64_t>(batch));
  doc.Set("k", static_cast<uint64_t>(cm.layout.k));
  doc.Set("num_columns", static_cast<uint64_t>(cm.layout.num_columns));
  doc.Set("rows_used", static_cast<uint64_t>(cm.layout.rows_used));
  doc.Set("compile_seconds", compiled.compile_seconds);
  doc.Set("witness_seconds", proof.witness_seconds);
  doc.Set("prove_seconds", proof.prove_seconds);
  doc.Set("prove_seconds_per_inference", proof.prove_seconds / static_cast<double>(batch));
  doc.Set("verify_seconds", verify_seconds);
  doc.Set("proof_bytes", static_cast<uint64_t>(EncodePlanProof(proof.artifact).size()));
  const size_t plonk_bytes = proof.artifact.proofs.empty() ? 0 : proof.artifact.proofs[0].size();
  doc.Set("plonk_proof_bytes", static_cast<uint64_t>(plonk_bytes));
  obs::Json segments = obs::Json::Array();
  for (size_t i = 0; i < batch; ++i) {
    segments.Append(static_cast<uint64_t>(cm.pk.vk.num_instance_rows / batch));
  }
  doc.Set("instance_elements", std::move(segments));
  return doc;
}

}  // namespace

std::string ProofPlan::ToString() const {
  return "{shards=" + std::to_string(shards) + ", batch=" + std::to_string(batch) + "}";
}

size_t ResolveShardCount(const Model& model, size_t requested) {
  size_t want = requested;
  if (want == 0) {
    want = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  return std::max<size_t>(1, std::min(want, MaxShards(model)));
}

StatusOr<ProofPlan> ResolveProofPlan(const Model& model, size_t shards, size_t batch) {
  if (shards > 1 && batch > 1) {
    return InvalidArgumentError("plan asks for both sharded (" + std::to_string(shards) +
                                ") and batched (" + std::to_string(batch) +
                                ") proving; pick one");
  }
  return ProofPlan{shards > 1 ? ResolveShardCount(model, shards) : 1, std::max<size_t>(1, batch)};
}

StatusOr<std::shared_ptr<const CompiledModel>> CompileCircuit(const Model& model, size_t batch,
                                                              const ZkmlOptions& options) {
  OptimizerOptions opt = options.optimizer;
  opt.backend = options.backend;
  opt.batch = batch;
  OptimizerResult result = OptimizeLayout(model, HardwareProfile::Cached(), opt);
  if (result.best.layout.k <= 0) {
    return InvalidArgumentError("compile: no feasible layout for '" + model.name + "' at batch " +
                                std::to_string(batch) + " within max_k " +
                                std::to_string(opt.max_k) + " (shrink the batch or raise max_k)");
  }
  auto compiled = std::make_shared<CompiledModel>(
      CompileModelWithLayout(model, result.best.layout, options));
  compiled->optimizer_seconds = result.optimizer_seconds;
  return std::shared_ptr<const CompiledModel>(std::move(compiled));
}

StatusOr<CompiledPlan> CompilePlan(const Model& model, const ProofPlan& plan,
                                   const ZkmlOptions& options) {
  obs::Span span("plan-compile");
  Timer timer;
  CompiledPlan out;
  out.model = model;
  ZKML_ASSIGN_OR_RETURN(out.plan, ResolveProofPlan(model, plan.shards, plan.batch));
  if (out.plan.shards > 1) {
    ZKML_ASSIGN_OR_RETURN(out.partition, PartitionModel(model, out.plan.shards));
  }
  // Per-circuit optimizer + keygen are independent; compile them concurrently.
  std::vector<std::optional<StatusOr<std::shared_ptr<const CompiledModel>>>> results(
      out.plan.shards);
  ForEachCircuit(results.size(), [&](size_t i) {
    results[i].emplace(CompileCircuit(out.CircuitModel(i), out.plan.batch, options));
  });
  for (auto& r : results) {
    if (!r->ok()) {
      return r->status();
    }
    out.circuits.push_back(std::move(*r).value());
  }
  out.compile_seconds = timer.ElapsedSeconds();
  return out;
}

StatusOr<PlanProof> ProvePlan(const CompiledPlan& compiled,
                              const std::vector<Tensor<int64_t>>& inputs_q,
                              const CancelToken* cancel, const PlanProgressFn& progress) {
  obs::Span span("plan-prove");
  const ProofPlan& plan = compiled.plan;
  const size_t k = plan.shards;
  if (inputs_q.size() != plan.batch) {
    return InvalidArgumentError("prove: got " + std::to_string(inputs_q.size()) +
                                " inputs, plan " + plan.ToString() + " proves " +
                                std::to_string(plan.batch));
  }
  const Model& model = compiled.model;
  for (size_t i = 0; i < inputs_q.size(); ++i) {
    if (inputs_q[i].NumElements() != model.input_shape.NumElements()) {
      return InvalidArgumentError(
          "prove: input " + std::to_string(i) + " has " +
          std::to_string(inputs_q[i].NumElements()) + " elements, model '" + model.name +
          "' expects " + std::to_string(model.input_shape.NumElements()));
    }
  }
  ZKML_RETURN_IF_ERROR(CheckCancel(cancel, "plan-witness"));

  PlanProof out;
  out.artifact.plan = plan;
  // Each circuit's inputs. A sharded plan fixes every boundary activation up
  // front by chaining the quantized executor (the fixed-point semantics the
  // circuits constrain), so every shard proves at once instead of waiting
  // for upstream proofs.
  std::vector<std::vector<Tensor<int64_t>>> circuit_inputs;
  if (k > 1) {
    Timer chain_timer;
    std::vector<Tensor<int64_t>> chain = {inputs_q[0]};
    for (size_t i = 0; i < k; ++i) {
      chain.push_back(RunQuantized(compiled.circuits[i]->model, chain.back()));
    }
    out.witness_seconds = chain_timer.ElapsedSeconds();
    for (size_t i = 0; i <= k; ++i) {
      out.artifact.vectors.push_back(ToFr(chain[i]));
      if (i < k) circuit_inputs.push_back({chain[i]});
    }
  } else {
    circuit_inputs.push_back(inputs_q);
  }

  Timer prove_timer;
  std::vector<std::optional<StatusOr<CircuitProof>>> results(k);
  std::atomic<size_t> done{0};
  ForEachCircuit(k, [&](size_t i) {
    results[i].emplace(ProveCircuit(*compiled.circuits[i], circuit_inputs[i], cancel));
    const size_t n = done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (progress) {
      progress(n, k);
    }
  });
  out.prove_seconds = prove_timer.ElapsedSeconds();

  const std::string unit = k > 1 ? "shard" : "";
  for (size_t i = 0; i < k; ++i) {
    StatusOr<CircuitProof>& r = *results[i];
    if (!r.ok()) {
      return Blame(unit, i, k, r.status());
    }
    if (k > 1) {
      // The executor chain and the in-circuit witness must agree on every
      // boundary; a divergence is a bug, not bad input, but surfacing it as a
      // Status keeps the daemon alive.
      std::vector<Fr> want = out.artifact.vectors[i];
      want.insert(want.end(), out.artifact.vectors[i + 1].begin(),
                  out.artifact.vectors[i + 1].end());
      if (r->instance != want) {
        return Blame(unit, i, k,
                     InternalError("shard witness disagrees with the boundary activation "
                                   "chain (executor/circuit divergence)"));
      }
    }
    out.artifact.proofs.push_back(std::move(r->bytes));
    out.circuit_prove_seconds.push_back(r->prove_seconds);
  }
  CircuitProof& first = **results[0];
  out.prover_metrics = std::move(first.metrics);
  if (k > 1) {
    out.instance = out.artifact.vectors.front();
    out.instance.insert(out.instance.end(), out.artifact.vectors.back().begin(),
                        out.artifact.vectors.back().end());
    out.outputs_q = {(**results[k - 1]).outputs_q[0]};
    return out;
  }
  // One circuit: its own witness and CreateProof times, as a single proof
  // reports them.
  out.witness_seconds = first.witness_seconds;
  out.prove_seconds = first.prove_seconds;
  out.instance = std::move(first.instance);
  out.outputs_q = std::move(first.outputs_q);
  if (plan.batch > 1) {
    const size_t seg = out.instance.size() / plan.batch;
    for (size_t i = 0; i < plan.batch; ++i) {
      out.artifact.vectors.emplace_back(out.instance.begin() + i * seg,
                                        out.instance.begin() + (i + 1) * seg);
    }
  }
  return out;
}

std::vector<uint8_t> EncodePlanProof(const PlanArtifact& artifact) {
  if (artifact.plan == ProofPlan{}) {
    return artifact.proofs.empty() ? std::vector<uint8_t>{} : artifact.proofs[0];
  }
  std::vector<uint8_t> out;
  ProofAppendU32(&out, kPlanProofMagic);
  ProofAppendU32(&out, kPlanProofVersion);
  ProofAppendU32(&out, static_cast<uint32_t>(artifact.plan.shards));
  ProofAppendU32(&out, static_cast<uint32_t>(artifact.plan.batch));
  for (const std::vector<Fr>& v : artifact.vectors) {
    ProofAppendU32(&out, static_cast<uint32_t>(v.size()));
    for (const Fr& x : v) {
      ProofAppendFr(&out, x);
    }
  }
  for (const std::vector<uint8_t>& p : artifact.proofs) {
    ProofAppendU32(&out, static_cast<uint32_t>(p.size()));
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

StatusOr<PlanArtifact> DecodePlanProof(const std::vector<uint8_t>& bytes) {
  PlanArtifact out;
  size_t offset = 0;
  uint32_t magic = 0;
  ZKML_RETURN_IF_ERROR(ProofReadU32(bytes, &offset, &magic, "artifact magic"));
  if (magic != kPlanProofMagic) {
    out.proofs.push_back(bytes);  // plan {1,1}: the raw plonk proof
    return out;
  }
  uint32_t version = 0, shards = 0, batch = 0;
  ZKML_RETURN_IF_ERROR(ProofReadU32(bytes, &offset, &version, "artifact version"));
  if (version != kPlanProofVersion) {
    return MalformedProofError("artifact: unsupported version " + std::to_string(version));
  }
  ZKML_RETURN_IF_ERROR(ProofReadU32(bytes, &offset, &shards, "shard count"));
  ZKML_RETURN_IF_ERROR(ProofReadU32(bytes, &offset, &batch, "batch count"));
  out.plan = {shards, batch};
  // Every vector and proof carries at least its u32 length, so the counts are
  // bounded by the remaining bytes — rejects absurd headers before any
  // allocation.
  const size_t entries = out.plan.num_vectors() + out.plan.shards;
  if (shards == 0 || batch == 0 || entries * 4 > bytes.size() - offset) {
    return MalformedProofError("artifact: implausible plan " + out.plan.ToString() + " for " +
                               std::to_string(bytes.size()) + " bytes");
  }
  out.vectors.resize(out.plan.num_vectors());
  for (std::vector<Fr>& v : out.vectors) {
    uint32_t len = 0;
    ZKML_RETURN_IF_ERROR(ProofReadU32(bytes, &offset, &len, "vector length"));
    if (static_cast<size_t>(len) * kProofFrSize > bytes.size() - offset) {
      return MalformedProofError("artifact: vector length " + std::to_string(len) +
                                 " exceeds remaining bytes at offset " + std::to_string(offset));
    }
    v.resize(len);
    for (Fr& x : v) {
      ZKML_RETURN_IF_ERROR(ProofReadFr(bytes, &offset, &x, "vector element"));
    }
  }
  out.proofs.resize(shards);
  for (std::vector<uint8_t>& p : out.proofs) {
    uint32_t len = 0;
    ZKML_RETURN_IF_ERROR(ProofReadU32(bytes, &offset, &len, "proof length"));
    if (static_cast<size_t>(len) > bytes.size() - offset) {
      return MalformedProofError("artifact: proof length " + std::to_string(len) +
                                 " exceeds remaining bytes at offset " + std::to_string(offset));
    }
    p.assign(bytes.begin() + static_cast<ptrdiff_t>(offset),
             bytes.begin() + static_cast<ptrdiff_t>(offset + len));
    offset += len;
  }
  ZKML_RETURN_IF_ERROR(ProofExpectEnd(bytes, offset));
  return out;
}

VerifyResult VerifyPlan(const CompiledPlan& compiled, const std::vector<Fr>& statement,
                        const PlanArtifact& artifact) {
  obs::Span span("plan-verify");
  const ProofPlan& plan = compiled.plan;
  if (artifact.plan != plan) {
    return VerifyResult::Rejected(
        VerifyStage::kStitch,
        InvalidArgumentError("artifact plan " + artifact.plan.ToString() +
                             " does not match the key's plan " + plan.ToString()));
  }
  if (artifact.vectors.size() != plan.num_vectors() || artifact.proofs.size() != plan.shards) {
    return VerifyResult::Rejected(
        VerifyStage::kStitch,
        InvalidArgumentError("artifact carries " + std::to_string(artifact.vectors.size()) +
                             " vectors and " + std::to_string(artifact.proofs.size()) +
                             " proofs; plan " + plan.ToString() + " needs " +
                             std::to_string(plan.num_vectors()) + " and " +
                             std::to_string(plan.shards)));
  }
  std::vector<std::vector<Fr>> instances;
  if (VerifyResult stitched = Stitch(compiled, statement, artifact, &instances); !stitched.ok()) {
    return stitched;
  }
  std::vector<CrossProofClaim> claims;
  for (size_t i = 0; i < plan.shards; ++i) {
    const CompiledModel& circuit = *compiled.circuits[i];
    claims.push_back({&circuit.pk.vk, circuit.pcs.get(), &instances[i], &artifact.proofs[i]});
  }
  const CrossProofVerdict verdict = VerifyClaims(claims, plan.shards > 1 ? "shard" : "");
  return verdict.ok() ? VerifyResult::Accepted()
                      : VerifyResult::Rejected(verdict.stage, verdict.status);
}

VerifyResult VerifyPlan(const CompiledPlan& compiled, const std::vector<Fr>& statement,
                        const std::vector<uint8_t>& artifact) {
  StatusOr<PlanArtifact> decoded = DecodePlanProof(artifact);
  if (!decoded.ok()) {
    return VerifyResult::Rejected(VerifyStage::kStitch, decoded.status());
  }
  return VerifyPlan(compiled, statement, *decoded);
}

obs::Json PlanReportJson(const CompiledPlan& compiled, const PlanProof& proof,
                         double verify_seconds) {
  if (compiled.plan.shards > 1) {
    return ShardedReportJson(compiled, proof, verify_seconds);
  }
  if (compiled.plan.batch > 1) {
    return BatchedReportJson(compiled, proof, verify_seconds);
  }
  ZkmlProof single;
  if (!proof.artifact.proofs.empty()) {
    single.bytes = proof.artifact.proofs[0];
  }
  single.prove_seconds = proof.prove_seconds;
  single.prover_metrics = proof.prover_metrics;
  return BuildRunReport(*compiled.circuits[0], single, verify_seconds, compiled.model.name)
      .ToJson();
}

CrossProofVerdict VerifyProofsBatched(const std::vector<CrossProofClaim>& claims) {
  obs::Span span("cross-proof-verify");
  return VerifyClaims(claims, "proof");
}

}  // namespace zkml
