#include "src/obs/run_report.h"

#include <fstream>
#include <utility>

namespace zkml {
namespace obs {
namespace {

constexpr char kSchema[] = "zkml.run_report/v2";

Json KernelsToJson(const KernelCounters& k) {
  Json j = Json::Object();
  j.Set("fft_calls", k.fft_calls);
  j.Set("fft_points", k.fft_points);
  j.Set("msm_calls", k.msm_calls);
  j.Set("msm_points", k.msm_points);
  return j;
}

StatusOr<KernelCounters> KernelsFromJson(const Json& j) {
  if (!j.is_object()) {
    return ParseError("run_report: kernels must be an object");
  }
  KernelCounters k;
  const Json* v;
  if ((v = j.Find("fft_calls")) != nullptr && v->is_number()) k.fft_calls = v->AsUint();
  if ((v = j.Find("fft_points")) != nullptr && v->is_number()) k.fft_points = v->AsUint();
  if ((v = j.Find("msm_calls")) != nullptr && v->is_number()) k.msm_calls = v->AsUint();
  if ((v = j.Find("msm_points")) != nullptr && v->is_number()) k.msm_points = v->AsUint();
  return k;
}

double NumberOr(const Json& j, std::string_view key, double fallback) {
  const Json* v = j.Find(key);
  return (v != nullptr && v->is_number()) ? v->AsDouble() : fallback;
}

std::string StringOr(const Json& j, std::string_view key, std::string fallback) {
  const Json* v = j.Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString() : std::move(fallback);
}

}  // namespace

Json RunReport::ToJson() const {
  Json root = Json::Object();
  root.Set("schema", kSchema);
  root.Set("model", model);
  root.Set("backend", backend);

  Json plan = Json::Object();
  plan.Set("shards", shards);
  plan.Set("batch", batch);
  root.Set("plan", std::move(plan));

  Json circuit_arr = Json::Array();
  for (const RunReportCircuit& c : circuits) {
    Json cj = Json::Object();
    cj.Set("name", c.name);
    cj.Set("k", static_cast<uint64_t>(c.k));
    cj.Set("num_columns", static_cast<uint64_t>(c.num_columns));
    cj.Set("rows_used", c.rows_used);
    cj.Set("num_lookups", c.num_lookups);
    cj.Set("flops", c.flops);
    cj.Set("input_elements", c.input_elements);
    cj.Set("instance_elements", c.instance_elements);
    cj.Set("predicted_prove_seconds", c.predicted_prove_seconds);
    cj.Set("prove_seconds", c.prove_seconds);
    cj.Set("proof_bytes", c.proof_bytes);
    circuit_arr.Append(std::move(cj));
  }
  root.Set("circuits", std::move(circuit_arr));

  Json timings = Json::Object();
  timings.Set("compile_seconds", compile_seconds);
  timings.Set("keygen_seconds", keygen_seconds);
  timings.Set("witness_seconds", witness_seconds);
  timings.Set("prove_seconds", prove_seconds);
  timings.Set("verify_seconds", verify_seconds);
  root.Set("timings", std::move(timings));

  root.Set("proof_bytes", proof_bytes);

  Json stage_arr = Json::Array();
  for (const RunReportStage& s : stages) {
    Json sj = Json::Object();
    sj.Set("name", s.name);
    sj.Set("seconds", s.seconds);
    sj.Set("kernels", KernelsToJson(s.kernels));
    stage_arr.Append(std::move(sj));
  }
  root.Set("stages", std::move(stage_arr));

  root.Set("kernels", KernelsToJson(kernels));
  root.Set("rss_hwm_kb", rss_hwm_kb);
  return root;
}

StatusOr<RunReport> RunReport::FromJson(const Json& j) {
  if (!j.is_object()) {
    return ParseError("run_report: top level must be an object");
  }
  const Json* schema = j.Find("schema");
  if (schema == nullptr || !schema->is_string() || schema->AsString() != kSchema) {
    return ParseError(std::string("run_report: missing or unsupported schema (want ") + kSchema +
                      ")");
  }
  RunReport r;
  r.model = StringOr(j, "model", "");
  r.backend = StringOr(j, "backend", "");

  const Json* plan = j.Find("plan");
  if (plan == nullptr || !plan->is_object()) {
    return ParseError("run_report: plan must be an object");
  }
  r.shards = static_cast<uint64_t>(NumberOr(*plan, "shards", 0));
  r.batch = static_cast<uint64_t>(NumberOr(*plan, "batch", 0));
  if (r.shards == 0 || r.batch == 0) {
    return ParseError("run_report: plan needs shards and batch of at least 1");
  }
  const Json* circuits = j.Find("circuits");
  if (circuits == nullptr || !circuits->is_array() || circuits->size() != r.shards) {
    return ParseError("run_report: circuits must be an array of one entry per shard (plan has " +
                      std::to_string(r.shards) + ")");
  }
  for (const Json& cj : circuits->items()) {
    if (!cj.is_object()) {
      return ParseError("run_report: circuit entries must be objects");
    }
    RunReportCircuit c;
    c.name = StringOr(cj, "name", "");
    c.k = static_cast<uint32_t>(NumberOr(cj, "k", 0));
    c.num_columns = static_cast<uint32_t>(NumberOr(cj, "num_columns", 0));
    c.rows_used = static_cast<uint64_t>(NumberOr(cj, "rows_used", 0));
    c.num_lookups = static_cast<uint64_t>(NumberOr(cj, "num_lookups", 0));
    c.flops = static_cast<uint64_t>(NumberOr(cj, "flops", 0));
    c.input_elements = static_cast<uint64_t>(NumberOr(cj, "input_elements", 0));
    c.instance_elements = static_cast<uint64_t>(NumberOr(cj, "instance_elements", 0));
    c.predicted_prove_seconds = NumberOr(cj, "predicted_prove_seconds", 0);
    c.prove_seconds = NumberOr(cj, "prove_seconds", 0);
    c.proof_bytes = static_cast<uint64_t>(NumberOr(cj, "proof_bytes", 0));
    r.circuits.push_back(std::move(c));
  }
  if (const Json* t = j.Find("timings"); t != nullptr && t->is_object()) {
    r.compile_seconds = NumberOr(*t, "compile_seconds", 0);
    r.keygen_seconds = NumberOr(*t, "keygen_seconds", 0);
    r.witness_seconds = NumberOr(*t, "witness_seconds", 0);
    r.prove_seconds = NumberOr(*t, "prove_seconds", 0);
    r.verify_seconds = NumberOr(*t, "verify_seconds", 0);
  }
  r.proof_bytes = static_cast<uint64_t>(NumberOr(j, "proof_bytes", 0));

  if (const Json* stages = j.Find("stages"); stages != nullptr) {
    if (!stages->is_array()) {
      return ParseError("run_report: stages must be an array");
    }
    for (const Json& sj : stages->items()) {
      if (!sj.is_object()) {
        return ParseError("run_report: stage entries must be objects");
      }
      RunReportStage s;
      s.name = StringOr(sj, "name", "");
      s.seconds = NumberOr(sj, "seconds", 0);
      if (const Json* kj = sj.Find("kernels"); kj != nullptr) {
        ZKML_ASSIGN_OR_RETURN(s.kernels, KernelsFromJson(*kj));
      }
      r.stages.push_back(std::move(s));
    }
  }
  if (const Json* kj = j.Find("kernels"); kj != nullptr) {
    ZKML_ASSIGN_OR_RETURN(r.kernels, KernelsFromJson(*kj));
  }
  r.rss_hwm_kb = static_cast<uint64_t>(NumberOr(j, "rss_hwm_kb", 0));
  return r;
}

Status RunReport::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return IoError("cannot open report output file: " + path);
  }
  out << ToJson().DumpPretty();
  if (!out) {
    return IoError("failed writing report output file: " + path);
  }
  return Status::Ok();
}

}  // namespace obs
}  // namespace zkml
