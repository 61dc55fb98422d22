#include "src/zkml/zkml.h"

#include "src/base/check.h"
#include "src/base/timer.h"
#include "src/compiler/compiler.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/plonk/mock_prover.h"
#include "src/plonk/prover.h"
#include "src/plonk/verifier.h"

namespace zkml {

std::shared_ptr<Pcs> MakePcsBackend(PcsKind kind, size_t n, uint64_t seed) {
  if (kind == PcsKind::kKzg) {
    return std::make_shared<KzgPcs>(std::make_shared<KzgSetup>(KzgSetup::Create(n, seed)));
  }
  return std::make_shared<IpaPcs>(std::make_shared<IpaSetup>(IpaSetup::Create(n, seed)));
}

CompiledModel CompileModelWithLayout(const Model& model, const PhysicalLayout& layout,
                                     const ZkmlOptions& options) {
  obs::Span compile_span("compile");
  CompiledModel compiled;
  compiled.model = model;
  compiled.layout = layout;
  compiled.predicted_cost =
      EstimateProvingCost(layout, HardwareProfile::Cached(), options.backend);
  // Honesty check: the cost model's prediction sits next to the measured
  // prove time (see Prove) in the metrics registry.
  obs::MetricsRegistry::Global()
      .gauge("optimizer.predicted_prove_seconds")
      .Set(compiled.predicted_cost.total_seconds);

  const size_t n = static_cast<size_t>(1) << layout.k;
  compiled.pcs = MakePcsBackend(options.backend, n, options.setup_seed);

  Timer keygen_timer;
  // Keygen runs on the zero-input circuit: fixed columns and copy constraints
  // are input-independent (the graph has no data-dependent control flow).
  // A batched layout replicates the zero inference so the keys cover every
  // inference's advice region.
  const std::vector<Tensor<int64_t>> zeros(layout.batch, Tensor<int64_t>(model.input_shape));
  BuiltBatchedCircuit built = [&] {
    obs::Span build_span("compile-build-circuit");
    return BuildBatchedCircuit(model, layout, zeros);
  }();
  compiled.pk = Keygen(built.builder->cs(), built.builder->assignment(), *compiled.pcs, layout.k);
  // The instance layout is input-independent, so the zero-input build fixes
  // the statement length the verifier must insist on.
  compiled.pk.vk.num_instance_rows = built.num_instance_rows;
  compiled.keygen_seconds = keygen_timer.ElapsedSeconds();
  return compiled;
}

StatusOr<CompiledModel> CompileCircuit(const Model& model, size_t batch,
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
  CompiledModel compiled = CompileModelWithLayout(model, result.best.layout, options);
  compiled.optimizer_seconds = result.optimizer_seconds;
  return compiled;
}

CompiledModel CompileModel(const Model& model, const ZkmlOptions& options) {
  StatusOr<CompiledModel> compiled = CompileCircuit(model, 1, options);
  ZKML_CHECK_MSG(compiled.ok(), compiled.status().ToString().c_str());
  return std::move(compiled).value();
}

StatusOr<CircuitProof> ProveCircuit(const CompiledModel& circuit,
                                    const std::vector<Tensor<int64_t>>& inputs_q,
                                    const CancelToken* cancel) {
  if (inputs_q.size() != circuit.layout.batch) {
    return InvalidArgumentError("prove: got " + std::to_string(inputs_q.size()) +
                                " inputs, circuit was compiled for batch size " +
                                std::to_string(circuit.layout.batch));
  }
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

StatusOr<ZkmlProof> ProveCancellable(const CompiledModel& compiled,
                                     const Tensor<int64_t>& input_q,
                                     const CancelToken* cancel) {
  ZKML_ASSIGN_OR_RETURN(CircuitProof proof, ProveCircuit(compiled, {input_q}, cancel));
  ZkmlProof out;
  out.bytes = std::move(proof.bytes);
  out.instance = std::move(proof.instance);
  out.output_q = std::move(proof.outputs_q[0]);
  out.witness_seconds = proof.witness_seconds;
  out.prove_seconds = proof.prove_seconds;
  out.prover_metrics = std::move(proof.metrics);
  return out;
}

ZkmlProof Prove(const CompiledModel& compiled, const Tensor<int64_t>& input_q) {
  StatusOr<ZkmlProof> proof = ProveCancellable(compiled, input_q, /*cancel=*/nullptr);
  ZKML_CHECK_MSG(proof.ok(), proof.status().ToString().c_str());
  return std::move(proof).value();
}

VerifyResult VerifyDetailed(const VerifyingKey& vk, const Pcs& pcs,
                            const std::vector<Fr>& instance,
                            const std::vector<uint8_t>& proof_bytes) {
  if (vk.num_instance_rows != 0 && instance.size() != vk.num_instance_rows) {
    return VerifyResult::Rejected(
        VerifyStage::kInstance,
        InvalidArgumentError("instance vector has " + std::to_string(instance.size()) +
                             " values, verifying key expects " +
                             std::to_string(vk.num_instance_rows)));
  }
  return VerifyProof(vk, pcs, {instance}, proof_bytes);
}

bool Verify(const VerifyingKey& vk, const Pcs& pcs, const std::vector<Fr>& instance,
            const std::vector<uint8_t>& proof_bytes) {
  return VerifyDetailed(vk, pcs, instance, proof_bytes).ok();
}

bool Verify(const CompiledModel& compiled, const ZkmlProof& proof) {
  return Verify(compiled.pk.vk, *compiled.pcs, proof.instance, proof.bytes);
}

bool SoundnessAudit::Passed() const {
  bool ok = !interrupted && witness_satisfied && coverage.dead_gates == 0 &&
            coverage.dead_lookups == 0 && mutation.AllDetected();
  if (forgery_ran) {
    ok = ok && honest_kzg_accepted && honest_ipa_accepted && forged_kzg_rejected &&
         forged_ipa_rejected;
  }
  return ok;
}

obs::Json SoundnessAudit::ToJson() const {
  obs::Json forgery;  // stays null (omitted) when the harness did not run
  if (forgery_ran) {
    forgery = obs::Json::Object();
    forgery.Set("honest_kzg_accepted", honest_kzg_accepted);
    forgery.Set("honest_ipa_accepted", honest_ipa_accepted);
    forgery.Set("forged_kzg_rejected", forged_kzg_rejected);
    forgery.Set("forged_ipa_rejected", forged_ipa_rejected);
  }
  obs::Json j = SoundnessReportJson(coverage, mutation, forgery);
  j.Set("witness_satisfied", witness_satisfied);
  j.Set("interrupted", interrupted);
  j.Set("passed", Passed());
  return j;
}

SoundnessAudit RunSoundnessAudit(const Model& model, const Tensor<int64_t>& input_q,
                                 const SoundnessAuditOptions& options) {
  obs::Span audit_span("soundness-audit");
  SoundnessAudit audit;
  // Interruption points sit between the audit engines: whatever completed
  // before the token fired is reported, and `interrupted` marks the report
  // as partial.
  auto interrupted = [&] {
    if (!CheckCancel(options.cancel, "soundness-audit").ok()) {
      audit.interrupted = true;
    }
    return audit.interrupted;
  };

  if (interrupted()) {
    return audit;
  }
  ZkmlOptions kzg_options;
  kzg_options.backend = PcsKind::kKzg;
  CompiledModel kzg = CompileModel(model, kzg_options);

  BuiltBatchedCircuit built = BuildBatchedCircuit(model, kzg.layout, {input_q});
  const ConstraintSystem& cs = built.builder->cs();
  const Assignment& asn = built.builder->assignment();

  audit.witness_satisfied = MockProver(&cs, &asn).IsSatisfied();
  audit.coverage = AnalyzeCoverage(cs, asn);
  if (audit.witness_satisfied && !interrupted()) {
    // Fuzzing an unsatisfied witness would blame cells at random; coverage is
    // still meaningful (it only reads fixed columns and input activations).
    FuzzOptions fuzz;
    fuzz.seed = options.seed;
    fuzz.mutations_per_cell = options.mutations_per_cell;
    audit.mutation = FuzzWitness(cs, asn, fuzz);
  }

  if (options.run_forgery && !interrupted()) {
    audit.forgery_ran = true;
    ZkmlOptions ipa_options;
    ipa_options.backend = PcsKind::kIpa;
    // Same layout under the other backend so the harness compares verifiers,
    // not optimizer decisions.
    CompiledModel ipa = CompileModelWithLayout(model, kzg.layout, ipa_options);

    auto check_backend = [&](const CompiledModel& compiled, bool* honest_accepted,
                             bool* forged_rejected) {
      if (interrupted()) {
        return;
      }
      StatusOr<ZkmlProof> proof = ProveCancellable(compiled, input_q, options.cancel);
      if (!proof.ok()) {
        audit.interrupted = true;
        return;
      }
      *honest_accepted = Verify(compiled, *proof);
      // Tamper the claimed output (the statement's tail) and demand the
      // untouched proof no longer verifies against it.
      std::vector<Fr> forged = proof->instance;
      ZKML_CHECK(!forged.empty());
      forged.back() = forged.back() + Fr::One();
      *forged_rejected = !Verify(compiled.pk.vk, *compiled.pcs, forged, proof->bytes);
    };
    check_backend(kzg, &audit.honest_kzg_accepted, &audit.forged_kzg_rejected);
    check_backend(ipa, &audit.honest_ipa_accepted, &audit.forged_ipa_rejected);
  }
  return audit;
}

}  // namespace zkml
