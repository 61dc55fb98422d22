// End-to-end tests for plan-driven proving (src/zkml/plan.h) under both
// commitment backends: sharded plans (boundary stitching, a composite
// statement equal to the single-circuit one), batched plans (N=1
// bit-compatibility, per-inference blame at the stitch stage), the
// zkml.proof/v2 envelope codec, plan-mismatch rejection, and the
// zkml.run_report/v2 document.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/layers/quant_executor.h"
#include "src/model/model_builder.h"
#include "src/model/zoo.h"
#include "src/tensor/quantizer.h"
#include "src/zkml/plan.h"

namespace zkml {
namespace {

ZkmlOptions FastOptions(PcsKind backend) {
  ZkmlOptions options;
  options.backend = backend;
  options.optimizer.min_columns = 10;
  options.optimizer.max_columns = 26;
  options.optimizer.max_k = 14;
  return options;
}

Model TinyChain() {
  QuantParams qp;
  qp.sf_bits = 5;
  qp.table_bits = 10;
  ModelBuilder mb("tiny-chain", Shape({6}), qp, 3);
  int t = mb.FullyConnected(mb.input(), 4);
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.FullyConnected(t, 3);
  return mb.Finish(t);
}

std::vector<Tensor<int64_t>> Inputs(const Model& model, size_t n, uint64_t seed) {
  std::vector<Tensor<int64_t>> inputs;
  for (size_t i = 0; i < n; ++i) {
    inputs.push_back(QuantizeTensor(SyntheticInput(model, seed + i), model.quant));
  }
  return inputs;
}

struct Proved {
  CompiledPlan compiled;
  PlanProof proof;
  std::vector<uint8_t> artifact;
};

// Compiles TinyChain under `plan` and proves inputs seeded seed, seed+1, ...
StatusOr<Proved> CompileAndProve(const ProofPlan& plan, PcsKind backend, uint64_t seed) {
  const Model model = TinyChain();
  ZKML_ASSIGN_OR_RETURN(CompiledPlan compiled, CompilePlan(model, plan, FastOptions(backend)));
  ZKML_ASSIGN_OR_RETURN(PlanProof proof,
                        ProvePlan(compiled, Inputs(model, compiled.plan.batch, seed)));
  std::vector<uint8_t> artifact = EncodePlanProof(proof.artifact);
  return Proved{std::move(compiled), std::move(proof), std::move(artifact)};
}

std::string BackendName(const ::testing::TestParamInfo<PcsKind>& info) {
  return info.param == PcsKind::kKzg ? "Kzg" : "Ipa";
}

// --- Sharded plans ---

class ShardedTest : public ::testing::TestWithParam<PcsKind> {};

TEST_P(ShardedTest, ProveVerifyRoundTrip) {
  const StatusOr<Proved> p = CompileAndProve({2, 1}, GetParam(), 11);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p->compiled.plan, (ProofPlan{2, 1}));
  ASSERT_EQ(p->compiled.circuits.size(), 2u);

  // k shards -> k+1 boundary vectors; the composite statement is the outer
  // pair, exactly what the single-circuit verifier would see.
  const PlanArtifact& a = p->proof.artifact;
  ASSERT_EQ(a.vectors.size(), 3u);
  ASSERT_EQ(a.proofs.size(), 2u);
  EXPECT_EQ(p->proof.instance.size(), a.vectors.front().size() + a.vectors.back().size());

  // The proven output equals the quantized reference execution.
  const Model model = TinyChain();
  ASSERT_EQ(p->proof.outputs_q.size(), 1u);
  EXPECT_EQ(p->proof.outputs_q[0].ToVector(),
            RunQuantized(model, Inputs(model, 1, 11)[0]).ToVector());

  const StatusOr<PlanArtifact> decoded = DecodePlanProof(p->artifact);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->plan, (ProofPlan{2, 1}));
  const VerifyResult r = VerifyPlan(p->compiled, p->proof.instance, p->artifact);
  EXPECT_TRUE(r.ok()) << r.ToString();
}

TEST_P(ShardedTest, CompositeInstanceMatchesSingleCircuitStatement) {
  // A sharded proof claims the same public statement as the unsharded prover
  // for the same input, so statement consumers need no sharding awareness.
  const StatusOr<Proved> p = CompileAndProve({2, 1}, GetParam(), 5);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const Model model = TinyChain();
  const CompiledModel single = CompileModel(model, FastOptions(GetParam()));
  EXPECT_EQ(p->proof.instance, Prove(single, Inputs(model, 1, 5)[0]).instance);
}

TEST_P(ShardedTest, WrongStatementRejectedAtStitchStage) {
  const StatusOr<Proved> p = CompileAndProve({2, 1}, GetParam(), 13);
  ASSERT_TRUE(p.ok()) << p.status().ToString();

  // Claiming a different output must fail before any shard is verified: the
  // artifact's outer boundary disagrees with the statement.
  std::vector<Fr> bad_output = p->proof.instance;
  bad_output.back() += Fr::One();
  const VerifyResult r1 = VerifyPlan(p->compiled, bad_output, p->artifact);
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.stage, VerifyStage::kStitch) << r1.ToString();

  // Claiming a different input must fail the same way.
  std::vector<Fr> bad_input = p->proof.instance;
  bad_input[0] += Fr::One();
  const VerifyResult r2 = VerifyPlan(p->compiled, bad_input, p->artifact);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.stage, VerifyStage::kStitch) << r2.ToString();
}

TEST_P(ShardedTest, ReportJsonCarriesSchemaAndPerShardTimings) {
  const StatusOr<Proved> p = CompileAndProve({2, 1}, GetParam(), 17);
  ASSERT_TRUE(p.ok()) << p.status().ToString();

  const obs::Json report = BuildRunReport(p->compiled, p->proof).ToJson();
  ASSERT_NE(report.Find("schema"), nullptr);
  EXPECT_EQ(report.Find("schema")->AsString(), "zkml.run_report/v2");
  EXPECT_EQ(report.Find("proof_bytes")->AsUint(), p->artifact.size());
  // Round-trips through the JSON parser and RunReport::FromJson
  // (telemetry-validate consumes this), keeping one timing per shard.
  const StatusOr<obs::Json> reparsed = obs::Json::Parse(report.DumpPretty());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  const StatusOr<obs::RunReport> r = obs::RunReport::FromJson(*reparsed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->backend, GetParam() == PcsKind::kKzg ? "kzg" : "ipa");
  ASSERT_EQ(r->circuits.size(), 2u);
  for (size_t i = 0; i < r->circuits.size(); ++i) {
    EXPECT_DOUBLE_EQ(r->circuits[i].prove_seconds, p->proof.circuit_prove_seconds[i]);
    EXPECT_GT(r->circuits[i].prove_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ShardedTest, ::testing::Values(PcsKind::kKzg, PcsKind::kIpa),
                         BackendName);

TEST(ShardedCodecTest, ResolveShardCountClampsToModelAndHardware) {
  const Model model = TinyChain();
  const size_t max = MaxShards(model);
  EXPECT_EQ(ResolveShardCount(model, 1), 1u);
  EXPECT_LE(ResolveShardCount(model, 0), max);     // auto: per hardware thread
  EXPECT_GE(ResolveShardCount(model, 0), 1u);
  EXPECT_EQ(ResolveShardCount(model, 1000), max);  // over-ask clamps, not fails
}

TEST(PlanTest, ResolveProofPlanClampsShardsAndRejectsShardedBatches) {
  const Model model = TinyChain();
  EXPECT_EQ(*ResolveProofPlan(model, 0, 0), (ProofPlan{1, 1}));  // 0 and 1 mean one
  EXPECT_EQ(*ResolveProofPlan(model, 1000, 1), (ProofPlan{MaxShards(model), 1}));
  EXPECT_EQ(*ResolveProofPlan(model, 1, 4), (ProofPlan{1, 4}));
  const StatusOr<ProofPlan> both = ResolveProofPlan(model, 2, 2);
  ASSERT_FALSE(both.ok());
  EXPECT_NE(both.status().message().find("pick one"), std::string::npos);
}

// --- Batched plans ---

class BatchedTest : public ::testing::TestWithParam<PcsKind> {};

TEST_P(BatchedTest, ProveVerifyRoundTrip) {
  const StatusOr<Proved> p = CompileAndProve({1, 3}, GetParam(), 11);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p->compiled.circuits.size(), 1u);
  ASSERT_EQ(p->compiled.circuits[0]->layout.batch, 3u);
  ASSERT_EQ(p->proof.artifact.vectors.size(), 3u);
  ASSERT_EQ(p->proof.outputs_q.size(), 3u);

  // The statement is the concatenation of the per-inference segments.
  std::vector<Fr> concat;
  for (const std::vector<Fr>& seg : p->proof.artifact.vectors) {
    concat.insert(concat.end(), seg.begin(), seg.end());
  }
  EXPECT_EQ(p->proof.instance, concat);

  // Every inference's proven output equals its quantized reference execution.
  const Model model = TinyChain();
  const std::vector<Tensor<int64_t>> inputs = Inputs(model, 3, 11);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(p->proof.outputs_q[i].ToVector(), RunQuantized(model, inputs[i]).ToVector())
        << "inference " << i;
  }

  EXPECT_EQ(DecodePlanProof(p->artifact)->plan, (ProofPlan{1, 3}));
  const VerifyResult r = VerifyPlan(p->compiled, p->proof.instance, p->artifact);
  EXPECT_TRUE(r.ok()) << r.ToString();
}

TEST_P(BatchedTest, BatchOfOneIsBitIdenticalToSingleProof) {
  // The N=1 batched circuit IS the single-inference circuit: same layout,
  // same keys, same transcript — so the proof bytes must match exactly, and
  // the plan {1,1} artifact is those raw bytes.
  const StatusOr<Proved> p = CompileAndProve({1, 1}, GetParam(), 5);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const Model model = TinyChain();
  const CompiledModel single = CompileModel(model, FastOptions(GetParam()));
  const ZkmlProof sp = Prove(single, Inputs(model, 1, 5)[0]);

  ASSERT_EQ(p->proof.artifact.proofs.size(), 1u);
  EXPECT_EQ(p->proof.artifact.proofs[0], sp.bytes);
  EXPECT_EQ(p->artifact, sp.bytes);
  EXPECT_EQ(p->proof.instance, sp.instance);

  // Cross-check: the single-circuit verifier accepts the plan's proof, and
  // the plan verifier accepts the single proof.
  const VerifyResult r = VerifyDetailed(single.pk.vk, *single.pcs, p->proof.instance, p->artifact);
  EXPECT_TRUE(r.ok()) << r.ToString();
  const VerifyResult r2 = VerifyPlan(p->compiled, sp.instance, sp.bytes);
  EXPECT_TRUE(r2.ok()) << r2.ToString();
}

TEST_P(BatchedTest, TamperedInferenceBlamedAtBatchStitch) {
  const StatusOr<Proved> p = CompileAndProve({1, 3}, GetParam(), 13);
  ASSERT_TRUE(p.ok()) << p.status().ToString();

  // Claiming a different value inside inference 1's segment must fail at the
  // stitch stage, and the rejection must name that inference.
  std::vector<Fr> tampered = p->proof.instance;
  tampered[p->proof.artifact.vectors[0].size()] += Fr::One();
  const VerifyResult r = VerifyPlan(p->compiled, tampered, p->artifact);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.stage, VerifyStage::kStitch) << r.ToString();
  EXPECT_NE(r.ToString().find("inference 1"), std::string::npos) << r.ToString();

  // Same for the last inference, to pin the offset arithmetic at both ends.
  std::vector<Fr> tampered_last = p->proof.instance;
  tampered_last.back() += Fr::One();
  const VerifyResult r2 = VerifyPlan(p->compiled, tampered_last, p->artifact);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.stage, VerifyStage::kStitch) << r2.ToString();
  EXPECT_NE(r2.ToString().find("inference 2"), std::string::npos) << r2.ToString();
}

TEST_P(BatchedTest, WrongInputCountRejected) {
  const Model model = TinyChain();
  const StatusOr<CompiledPlan> compiled = CompilePlan(model, {1, 2}, FastOptions(GetParam()));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_FALSE(ProvePlan(*compiled, Inputs(model, 3, 7)).ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, BatchedTest, ::testing::Values(PcsKind::kKzg, PcsKind::kIpa),
                         BackendName);

// --- The zkml.proof/v2 envelope ---

class PlanCodecTest : public ::testing::TestWithParam<ProofPlan> {};

TEST_P(PlanCodecTest, EnvelopeRoundTripAndMalformedRejection) {
  const ProofPlan plan = GetParam();
  const StatusOr<Proved> p = CompileAndProve(plan, PcsKind::kKzg, 23);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const std::vector<uint8_t>& artifact = p->artifact;

  const StatusOr<PlanArtifact> decoded = DecodePlanProof(artifact);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->plan, plan);
  EXPECT_EQ(decoded->vectors, p->proof.artifact.vectors);
  EXPECT_EQ(decoded->proofs, p->proof.artifact.proofs);

  // Truncation at any prefix must be rejected, never crash.
  for (size_t len = 0; len < artifact.size(); ++len) {
    const std::vector<uint8_t> cut(artifact.begin(), artifact.begin() + len);
    ASSERT_FALSE(DecodePlanProof(cut).ok()) << "truncated to " << len << " bytes";
  }

  // Wrong magic: the bytes read as a raw plan {1,1} proof, which the key's
  // plan check rejects.
  std::vector<uint8_t> bad_magic = artifact;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(DecodePlanProof(bad_magic)->plan, (ProofPlan{1, 1}));
  const VerifyResult r = VerifyPlan(p->compiled, p->proof.instance, bad_magic);
  EXPECT_EQ(r.stage, VerifyStage::kStitch) << r.ToString();

  // An unsupported version is rejected.
  std::vector<uint8_t> bad_version = artifact;
  bad_version[4] = 3;
  EXPECT_FALSE(DecodePlanProof(bad_version).ok());

  // A zero or implausible count of the dimension that sizes the artifact is
  // rejected before anything is allocated for it.
  const size_t count_at = plan.shards > 1 ? 8 : 12;  // u32 shards, then u32 batch
  for (const uint8_t fill : {uint8_t{0x00}, uint8_t{0xFF}}) {
    std::vector<uint8_t> bad_count = artifact;
    std::fill(bad_count.begin() + count_at, bad_count.begin() + count_at + 4, fill);
    const StatusOr<PlanArtifact> d = DecodePlanProof(bad_count);
    ASSERT_FALSE(d.ok()) << "count filled with " << int{fill};
    EXPECT_NE(d.status().message().find("implausible"), std::string::npos)
        << d.status().ToString();
  }

  // Headers EncodePlanProof never writes are non-canonical: a header that
  // wraps one raw proof as plan {1,1}, and one with both counts above one.
  std::vector<uint8_t> wrapped(artifact.begin(), artifact.begin() + 8);  // magic, version
  for (const uint32_t word :
       {uint32_t{1}, uint32_t{1}, static_cast<uint32_t>(p->proof.artifact.proofs[0].size())}) {
    for (int b = 0; b < 4; ++b) wrapped.push_back(static_cast<uint8_t>(word >> (8 * b)));
  }
  wrapped.insert(wrapped.end(), p->proof.artifact.proofs[0].begin(),
                 p->proof.artifact.proofs[0].end());
  std::vector<uint8_t> both = artifact;
  both[plan.shards > 1 ? 12 : 8] = 2;  // the count that was 1
  for (const std::vector<uint8_t>* bytes : {&wrapped, &both}) {
    const StatusOr<PlanArtifact> d = DecodePlanProof(*bytes);
    ASSERT_FALSE(d.ok()) << (bytes == &wrapped ? "wrapped {1,1}" : "both counts > 1");
    EXPECT_NE(d.status().message().find("non-canonical"), std::string::npos)
        << d.status().ToString();
  }

  // Raw plonk proof bytes decode as plan {1,1}, and encode back unchanged.
  const std::vector<uint8_t>& raw = p->proof.artifact.proofs[0];
  const StatusOr<PlanArtifact> single = DecodePlanProof(raw);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->plan, (ProofPlan{1, 1}));
  EXPECT_TRUE(single->vectors.empty());
  EXPECT_EQ(single->proofs, std::vector<std::vector<uint8_t>>{raw});
  EXPECT_EQ(EncodePlanProof(*single), raw);
}

std::string PlanName(const ::testing::TestParamInfo<ProofPlan>& info) {
  const ProofPlan& plan = info.param;
  return plan.shards > 1  ? "Shards" + std::to_string(plan.shards)
         : plan.batch > 1 ? "Batch" + std::to_string(plan.batch)
                          : "Single";
}

INSTANTIATE_TEST_SUITE_P(Plans, PlanCodecTest, ::testing::Values(ProofPlan{2, 1}, ProofPlan{1, 4}),
                         PlanName);

// --- The zkml.run_report/v2 document ---

class PlanReportTest : public ::testing::TestWithParam<ProofPlan> {};

TEST_P(PlanReportTest, CarriesEveryCircuitAndRoundTrips) {
  const ProofPlan plan = GetParam();
  const StatusOr<Proved> p = CompileAndProve(plan, PcsKind::kKzg, 17);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const CompiledPlan& compiled = p->compiled;
  const PlanArtifact& a = p->proof.artifact;

  // Round-trips through the JSON parser and RunReport::FromJson, as
  // telemetry-validate reads it.
  const obs::Json json = BuildRunReport(compiled, p->proof).ToJson();
  EXPECT_EQ(json.Find("schema")->AsString(), "zkml.run_report/v2");
  const StatusOr<obs::Json> reparsed = obs::Json::Parse(json.DumpPretty());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  const StatusOr<obs::RunReport> r = obs::RunReport::FromJson(*reparsed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_EQ(r->model, "tiny-chain");
  EXPECT_EQ(r->backend, "kzg");
  EXPECT_EQ(r->shards, plan.shards);
  EXPECT_EQ(r->batch, plan.batch);
  EXPECT_EQ(r->proof_bytes, p->artifact.size());
  EXPECT_GT(r->prove_seconds, 0.0);
  EXPECT_FALSE(r->stages.empty());
  ASSERT_EQ(r->circuits.size(), plan.shards);
  double prove_sum = 0;
  for (size_t i = 0; i < plan.shards; ++i) {
    const obs::RunReportCircuit& c = r->circuits[i];
    const CompiledModel& circuit = *compiled.circuits[i];
    EXPECT_EQ(c.name, circuit.model.name);
    EXPECT_EQ(c.k, static_cast<uint32_t>(circuit.layout.k));
    EXPECT_EQ(c.num_columns, static_cast<uint32_t>(circuit.layout.num_columns));
    EXPECT_EQ(c.rows_used, circuit.layout.rows_used);
    EXPECT_EQ(c.instance_elements, circuit.pk.vk.num_instance_rows);
    EXPECT_EQ(c.proof_bytes, a.proofs[i].size());
    EXPECT_DOUBLE_EQ(c.prove_seconds, p->proof.circuit_prove_seconds[i]);
    prove_sum += c.prove_seconds;
    if (plan.shards > 1) {
      EXPECT_EQ(c.flops, static_cast<uint64_t>(compiled.partition.shards[i].flops));
      // The boundary activations: shard i's input is boundary i.
      EXPECT_EQ(c.input_elements, a.vectors[i].size());
    }
  }
  if (plan.shards > 1) {
    // The last boundary is the rest of the last shard's statement.
    const obs::RunReportCircuit& last = r->circuits.back();
    EXPECT_EQ(last.instance_elements - last.input_elements, a.vectors.back().size());
  } else {
    // Every inference's segment is an equal share of the one statement.
    const obs::RunReportCircuit& c = r->circuits[0];
    const Model model = TinyChain();
    EXPECT_EQ(c.flops, static_cast<uint64_t>(model.ApproxFlops()));
    EXPECT_EQ(c.input_elements, plan.batch * model.input_shape.NumElements());
    ASSERT_EQ(a.vectors.size(), plan.batch > 1 ? plan.batch : 0);
    for (const std::vector<Fr>& segment : a.vectors) {
      EXPECT_EQ(segment.size(), c.instance_elements / plan.batch);
    }
    EXPECT_DOUBLE_EQ(r->prove_seconds, prove_sum);
  }

  // A report whose circuits disagree with its plan is rejected.
  obs::Json wrong_plan = json;
  obs::Json claimed = obs::Json::Object();
  claimed.Set("shards", static_cast<uint64_t>(plan.shards + 1));
  claimed.Set("batch", static_cast<uint64_t>(plan.batch));
  wrong_plan.Set("plan", std::move(claimed));
  EXPECT_FALSE(obs::RunReport::FromJson(wrong_plan).ok());
}

INSTANTIATE_TEST_SUITE_P(Plans, PlanReportTest,
                         ::testing::Values(ProofPlan{1, 1}, ProofPlan{2, 1}, ProofPlan{1, 4}),
                         PlanName);

TEST(PlanVerifyTest, ArtifactOfAnotherPlanRejectedAtStitchNamingBothPlans) {
  const Model model = TinyChain();
  for (const auto& [proved_plan, key_plan] :
       {std::pair<ProofPlan, ProofPlan>{{3, 1}, {2, 1}}, {{1, 2}, {1, 4}}}) {
    const StatusOr<Proved> p = CompileAndProve(proved_plan, PcsKind::kKzg, 29);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    ASSERT_EQ(p->compiled.plan, proved_plan);
    const StatusOr<CompiledPlan> key = CompilePlan(model, key_plan, FastOptions(PcsKind::kKzg));
    ASSERT_TRUE(key.ok()) << key.status().ToString();

    const VerifyResult r = VerifyPlan(*key, p->proof.instance, p->artifact);
    ASSERT_FALSE(r.ok()) << proved_plan.ToString() << " artifact accepted by "
                         << key_plan.ToString() << " key";
    EXPECT_EQ(r.stage, VerifyStage::kStitch) << r.ToString();
    EXPECT_NE(r.ToString().find(proved_plan.ToString()), std::string::npos) << r.ToString();
    EXPECT_NE(r.ToString().find(key_plan.ToString()), std::string::npos) << r.ToString();
  }
}

}  // namespace
}  // namespace zkml
