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

std::shared_ptr<Pcs> MakePcsBackend(PcsKind kind, size_t max_len, uint64_t seed) {
  if (kind == PcsKind::kKzg) {
    return std::make_shared<KzgPcs>(std::make_shared<KzgSetup>(KzgSetup::Create(max_len, seed)));
  }
  return std::make_shared<IpaPcs>(std::make_shared<IpaSetup>(IpaSetup::Create(max_len, seed)));
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
  // Batched layouts (layout.batch > 1) replicate the zero inference so the
  // keys cover every inference's advice region.
  Tensor<int64_t> zero(model.input_shape);
  size_t num_instance_rows = 0;
  std::unique_ptr<CircuitBuilder> builder;
  {
    obs::Span build_span("compile-build-circuit");
    if (layout.batch > 1) {
      std::vector<Tensor<int64_t>> zeros(layout.batch, zero);
      BuiltBatchedCircuit built = BuildBatchedCircuit(model, layout, zeros);
      builder = std::move(built.builder);
      num_instance_rows = built.num_instance_rows;
    } else {
      BuiltCircuit built = BuildCircuit(model, layout, zero);
      builder = std::move(built.builder);
      num_instance_rows = built.num_instance_rows;
    }
  }
  compiled.pk = Keygen(builder->cs(), builder->assignment(), *compiled.pcs, layout.k);
  // The instance layout is input-independent, so the zero-input build fixes
  // the statement length the verifier must insist on.
  compiled.pk.vk.num_instance_rows = num_instance_rows;
  compiled.keygen_seconds = keygen_timer.ElapsedSeconds();
  return compiled;
}

CompiledModel CompileModel(const Model& model, const ZkmlOptions& options) {
  OptimizerOptions opt = options.optimizer;
  opt.backend = options.backend;
  OptimizerResult result = OptimizeLayout(model, HardwareProfile::Cached(), opt);
  ZKML_CHECK_MSG(result.best.layout.k > 0, "optimizer found no feasible layout");
  CompiledModel compiled = CompileModelWithLayout(model, result.best.layout, options);
  compiled.optimizer_seconds = result.optimizer_seconds;
  return compiled;
}

StatusOr<ZkmlProof> ProveCancellable(const CompiledModel& compiled,
                                     const Tensor<int64_t>& input_q,
                                     const CancelToken* cancel) {
  ZkmlProof out;
  if (compiled.layout.batch > 1) {
    return InvalidArgumentError("model was compiled for batch size " +
                                std::to_string(compiled.layout.batch) +
                                "; use ProvePlan");
  }
  ZKML_RETURN_IF_ERROR(CheckCancel(cancel, "witness-gen"));
  Timer witness_timer;
  BuiltCircuit built = [&] {
    obs::Span witness_span("witness-gen");
    return BuildCircuit(compiled.model, compiled.layout, input_q);
  }();
  out.witness_seconds = witness_timer.ElapsedSeconds();
  out.output_q = built.output_q;

  const Assignment& asn = built.builder->assignment();
  const std::vector<Fr>& inst = asn.instance()[0];
  out.instance.assign(inst.begin(), inst.begin() + built.num_instance_rows);

  Timer prove_timer;
  ZKML_ASSIGN_OR_RETURN(out.bytes, CreateProofCancellable(compiled.pk, *compiled.pcs, asn,
                                                          cancel, &out.prover_metrics));
  out.prove_seconds = prove_timer.ElapsedSeconds();
  obs::MetricsRegistry::Global().gauge("prover.measured_prove_seconds").Set(out.prove_seconds);
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

  BuiltCircuit built = BuildCircuit(model, kzg.layout, input_q);
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

obs::RunReport BuildRunReport(const CompiledModel& compiled, const ZkmlProof& proof,
                              double verify_seconds, const std::string& model_name) {
  obs::RunReport report;
  report.model = model_name.empty() ? compiled.model.name : model_name;
  report.backend = dynamic_cast<const KzgPcs*>(compiled.pcs.get()) != nullptr ? "kzg" : "ipa";
  report.k = static_cast<uint32_t>(compiled.layout.k);
  report.num_columns = static_cast<uint32_t>(compiled.layout.num_columns);
  report.rows_used = compiled.layout.rows_used;
  report.num_lookups = compiled.layout.num_lookups;
  report.predicted_prove_seconds = compiled.predicted_cost.total_seconds;
  report.compile_seconds = compiled.optimizer_seconds + compiled.keygen_seconds;
  report.keygen_seconds = compiled.keygen_seconds;
  report.prove_seconds = proof.prove_seconds;
  report.verify_seconds = verify_seconds;
  report.proof_bytes = proof.bytes.size();
  for (const ProverStageMetrics& stage : proof.prover_metrics.stages) {
    report.stages.push_back({stage.name, stage.seconds, stage.kernels});
    report.kernels = report.kernels + stage.kernels;
  }
  report.rss_hwm_kb = obs::ReadRssHighWaterKb();
  return report;
}

}  // namespace zkml
