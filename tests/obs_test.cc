// Tests for the observability layer: span nesting and cross-thread
// attribution, concurrent metric recording, telemetry JSON schemas (golden
// chrome trace, run-report round-trip), the circuit-resource profiler, and
// the invariant that per-stage prover kernel deltas sum to the activity
// aggregate.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/kernel_stats.h"
#include "src/base/thread_pool.h"
#include "src/model/zoo.h"
#include "src/obs/circuit_profile.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/run_report.h"
#include "src/obs/trace.h"
#include "src/pcs/kzg.h"
#include "src/plonk/keygen.h"
#include "src/plonk/prover.h"

namespace zkml {
namespace {

using obs::Json;

#ifndef ZKML_TESTDATA_DIR
#define ZKML_TESTDATA_DIR "tests/testdata"
#endif

// ---------------------------------------------------------------------------
// JSON

TEST(JsonTest, RoundTripsBasicValues) {
  const std::string text =
      R"({"s":"a\"b","n":-2.5,"i":42,"b":true,"z":null,"arr":[1,2,3],"o":{"k":"v"}})";
  StatusOr<Json> parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& j = parsed.value();
  EXPECT_EQ(j.Find("s")->AsString(), "a\"b");
  EXPECT_DOUBLE_EQ(j.Find("n")->AsDouble(), -2.5);
  EXPECT_EQ(j.Find("i")->AsInt(), 42);
  EXPECT_TRUE(j.Find("b")->AsBool());
  EXPECT_TRUE(j.Find("z")->is_null());
  ASSERT_EQ(j.Find("arr")->size(), 3u);
  EXPECT_EQ(j.Find("arr")->At(1)->AsInt(), 2);
  EXPECT_EQ(j.Find("o")->Find("k")->AsString(), "v");

  // Dump -> Parse is stable.
  StatusOr<Json> again = Json::Parse(j.Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().Dump(), j.Dump());
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,2,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("").ok());
}

// ---------------------------------------------------------------------------
// Spans

TEST(TraceTest, SpansAreInertWithoutTracer) {
  obs::Span span("no-tracer");
  EXPECT_FALSE(span.active());
}

TEST(TraceTest, RecordsNestedSpansWithParents) {
  obs::Tracer tracer;
  {
    obs::TracerScope scope(&tracer);
    obs::Span outer("outer");
    ASSERT_TRUE(outer.active());
    {
      obs::Span inner("inner");
      ASSERT_TRUE(inner.active());
      { obs::Span leaf("leaf"); }
    }
    { obs::Span sibling("sibling"); }
  }
  const std::vector<obs::SpanRecord> records = tracer.Records();
  ASSERT_EQ(records.size(), 4u);  // completion order: leaf, inner, sibling, outer
  std::map<std::string, obs::SpanRecord> by_name;
  for (const obs::SpanRecord& r : records) {
    by_name[r.name] = r;
  }
  EXPECT_EQ(by_name["outer"].parent, -1);
  EXPECT_EQ(by_name["inner"].parent, by_name["outer"].id);
  EXPECT_EQ(by_name["leaf"].parent, by_name["inner"].id);
  EXPECT_EQ(by_name["sibling"].parent, by_name["outer"].id);
  // Nesting implies containment in time.
  EXPECT_GE(by_name["inner"].start_ns, by_name["outer"].start_ns);
  EXPECT_LE(by_name["inner"].start_ns + by_name["inner"].dur_ns,
            by_name["outer"].start_ns + by_name["outer"].dur_ns);
}

TEST(TraceTest, PoolTasksAttributeToSubmittingSpan) {
  obs::Tracer tracer;
  {
    obs::TracerScope scope(&tracer);
    obs::Span outer("submit");
    TaskGroup group;
    for (int i = 0; i < 8; ++i) {
      group.Submit([] {
        obs::Span worker_span("worker-task");
        kernelstats::RecordFft(64);
      });
    }
    group.Wait();
  }
  const std::vector<obs::SpanRecord> records = tracer.Records();
  ASSERT_EQ(records.size(), 9u);
  int64_t submit_id = -1;
  for (const obs::SpanRecord& r : records) {
    if (r.name == "submit") {
      submit_id = r.id;
      // All 8 recorded FFTs landed in the tracer sink while "submit" was open.
      EXPECT_EQ(r.kernels.fft_calls, 8u);
      EXPECT_EQ(r.kernels.fft_points, 8u * 64u);
    }
  }
  ASSERT_GE(submit_id, 0);
  for (const obs::SpanRecord& r : records) {
    if (r.name == "worker-task") {
      EXPECT_EQ(r.parent, submit_id) << "pool task span not parented to submitter";
    }
  }
}

TEST(TraceTest, ScopedSinkIsolatesConcurrentActivities) {
  // Two sinks installed on the same thread in turn: each activity sees only
  // its own kernel work; the process aggregate sees both.
  const KernelCounters before = kernelstats::Capture();
  KernelSink a, b;
  {
    kernelstats::ScopedSink sa(&a);
    kernelstats::RecordMsm(100);
  }
  {
    kernelstats::ScopedSink sb(&b);
    kernelstats::RecordMsm(50);
    kernelstats::RecordFft(32);
  }
  EXPECT_EQ(a.Capture().msm_points, 100u);
  EXPECT_EQ(a.Capture().fft_calls, 0u);
  EXPECT_EQ(b.Capture().msm_points, 50u);
  EXPECT_EQ(b.Capture().fft_points, 32u);
  const KernelCounters delta = kernelstats::Capture() - before;
  EXPECT_EQ(delta.msm_points, 150u);
  EXPECT_EQ(delta.fft_calls, 1u);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(MetricsTest, ConcurrentRecordingFromPoolWorkers) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("test.ops");
  obs::Histogram& hist = registry.histogram("test.latency", {1.0, 10.0, 100.0});
  constexpr size_t kItems = 10000;
  ParallelFor(0, kItems, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      counter.Increment();
      hist.Record(static_cast<double>(i % 200));
    }
  });
  EXPECT_EQ(counter.Value(), kItems);
  EXPECT_EQ(hist.Count(), kItems);
  uint64_t bucket_total = 0;
  for (uint64_t c : hist.BucketCounts()) {
    bucket_total += c;
  }
  EXPECT_EQ(bucket_total, kItems);
  // Sum of i % 200 over 10000 items = 50 * (0 + ... + 199) = 995000.
  EXPECT_DOUBLE_EQ(hist.Sum(), 995000.0);

  registry.gauge("test.level").Set(2.5);
  EXPECT_DOUBLE_EQ(registry.gauge("test.level").Value(), 2.5);
  // Find-or-create returns the same instance.
  EXPECT_EQ(&registry.counter("test.ops"), &counter);
}

TEST(MetricsTest, SerializesToSchema) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").Increment(3);
  registry.gauge("b.level").Set(1.5);
  registry.histogram("c.hist", {1.0, 2.0}).Record(1.5);
  const Json j = registry.ToJson();
  ASSERT_NE(j.Find("schema"), nullptr);
  EXPECT_EQ(j.Find("schema")->AsString(), "zkml.metrics/v1");
  const Json* counters = j.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("a.count")->AsUint(), 3u);
  const Json* gauges = j.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("b.level")->AsDouble(), 1.5);
  const Json* hists = j.Find("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_NE(hists->Find("c.hist"), nullptr);
  // The whole document survives the strict parser.
  EXPECT_TRUE(Json::Parse(j.DumpPretty()).ok());
}

TEST(MetricsTest, PublishesThreadPoolStats) {
  // Generate pool work first so the counters are non-trivial (TaskGroup
  // always goes through the pool; ParallelFor is serial for small ranges).
  std::atomic<uint64_t> sum{0};
  TaskGroup group;
  for (int i = 0; i < 32; ++i) {
    group.Submit([&] { sum.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  ASSERT_EQ(sum.load(), 32u);

  obs::MetricsRegistry registry;
  obs::PublishThreadPoolStats(registry, ThreadPool::Global());
  EXPECT_GT(registry.gauge("threadpool.num_workers").Value(), 0.0);
  EXPECT_GT(registry.gauge("threadpool.tasks_executed").Value(), 0.0);
  EXPECT_GT(registry.gauge("threadpool.uptime_seconds").Value(), 0.0);
}

// ---------------------------------------------------------------------------
// Telemetry schemas

TEST(TraceTest, ChromeTraceGoldenStructure) {
  obs::Tracer tracer;
  {
    obs::TracerScope scope(&tracer);
    obs::Span prove("prove-demo");
    {
      obs::Span stage_a("stage-a");
      {
        obs::Span fft("fft");
        kernelstats::RecordFft(32);
      }
    }
    { obs::Span stage_b("stage-b"); }
  }
  const Json trace = tracer.ToChromeTraceJson();
  // Structural validity: required chrome trace-event keys on every event.
  ASSERT_NE(trace.Find("traceEvents"), nullptr);
  EXPECT_EQ(trace.Find("displayTimeUnit")->AsString(), "ms");
  for (const Json& ev : trace.Find("traceEvents")->items()) {
    EXPECT_EQ(ev.Find("ph")->AsString(), "X");
    EXPECT_NE(ev.Find("name"), nullptr);
    EXPECT_NE(ev.Find("ts"), nullptr);
    EXPECT_NE(ev.Find("dur"), nullptr);
    EXPECT_NE(ev.Find("pid"), nullptr);
    EXPECT_NE(ev.Find("tid"), nullptr);
    EXPECT_NE(ev.Find("args")->Find("span_id"), nullptr);
  }
  // The emitted document survives the strict parser.
  ASSERT_TRUE(Json::Parse(trace.DumpPretty()).ok());

  // Golden file: the canonical event-name sequence (completion order) and
  // per-event schema for this span structure. Timestamps are not compared.
  std::ifstream golden_in(std::string(ZKML_TESTDATA_DIR) + "/golden_trace.json");
  ASSERT_TRUE(golden_in) << "missing golden_trace.json";
  const std::string golden_text((std::istreambuf_iterator<char>(golden_in)),
                                std::istreambuf_iterator<char>());
  StatusOr<Json> golden = Json::Parse(golden_text);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  const Json* golden_events = golden.value().Find("traceEvents");
  ASSERT_NE(golden_events, nullptr);
  const Json* events = trace.Find("traceEvents");
  ASSERT_EQ(events->size(), golden_events->size());
  for (size_t i = 0; i < events->size(); ++i) {
    EXPECT_EQ(events->At(i)->Find("name")->AsString(),
              golden_events->At(i)->Find("name")->AsString())
        << "event " << i << " name diverges from golden";
    EXPECT_EQ(events->At(i)->Find("args")->Find("parent_id")->AsInt(),
              golden_events->At(i)->Find("args")->Find("parent_id")->AsInt())
        << "event " << i << " parent diverges from golden";
  }
  // The fft span's kernel delta is pinned by the golden file too.
  EXPECT_EQ(events->At(0)->Find("args")->Find("fft_points")->AsUint(),
            golden_events->At(0)->Find("args")->Find("fft_points")->AsUint());
}

TEST(RunReportTest, RoundTripsThroughParser) {
  obs::RunReport report;
  report.model = "mnist";
  report.backend = "kzg";
  report.shards = 2;
  obs::RunReportCircuit c;
  c.name = "mnist:shard0/2";
  c.k = 12;
  c.num_columns = 18;
  c.rows_used = 3500;
  c.num_lookups = 7;
  c.flops = 90000;
  c.input_elements = 784;
  c.instance_elements = 1000;
  c.predicted_prove_seconds = 1.25;
  c.prove_seconds = 1.5;
  c.proof_bytes = 4000;
  report.circuits = {c, c};
  report.circuits[1].name = "mnist:shard1/2";
  report.compile_seconds = 0.5;
  report.keygen_seconds = 0.3;
  report.witness_seconds = 0.1;
  report.prove_seconds = 1.6;
  report.verify_seconds = 0.02;
  report.proof_bytes = 8096;
  report.stages.push_back({"advice-commit", 0.4, KernelCounters{2, 8192, 18, 73728}});
  report.stages.push_back({"quotient", 0.9, KernelCounters{52, 425984, 4, 65536}});
  report.kernels = report.stages[0].kernels + report.stages[1].kernels;
  report.rss_hwm_kb = 123456;

  StatusOr<Json> reparsed = Json::Parse(report.ToJson().DumpPretty());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  StatusOr<obs::RunReport> back = obs::RunReport::FromJson(reparsed.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const obs::RunReport& r = back.value();
  EXPECT_EQ(r.model, "mnist");
  EXPECT_EQ(r.backend, "kzg");
  EXPECT_EQ(r.shards, 2u);
  EXPECT_EQ(r.batch, 1u);
  ASSERT_EQ(r.circuits.size(), 2u);
  EXPECT_EQ(r.circuits[1].name, "mnist:shard1/2");
  EXPECT_EQ(r.circuits[0].k, 12u);
  EXPECT_EQ(r.circuits[0].num_columns, 18u);
  EXPECT_EQ(r.circuits[0].rows_used, 3500u);
  EXPECT_EQ(r.circuits[0].num_lookups, 7u);
  EXPECT_EQ(r.circuits[0].flops, 90000u);
  EXPECT_EQ(r.circuits[0].input_elements, 784u);
  EXPECT_EQ(r.circuits[0].instance_elements, 1000u);
  EXPECT_DOUBLE_EQ(r.circuits[0].predicted_prove_seconds, 1.25);
  EXPECT_DOUBLE_EQ(r.circuits[0].prove_seconds, 1.5);
  EXPECT_EQ(r.circuits[0].proof_bytes, 4000u);
  EXPECT_DOUBLE_EQ(r.compile_seconds, 0.5);
  EXPECT_DOUBLE_EQ(r.keygen_seconds, 0.3);
  EXPECT_DOUBLE_EQ(r.witness_seconds, 0.1);
  EXPECT_DOUBLE_EQ(r.prove_seconds, 1.6);
  EXPECT_DOUBLE_EQ(r.verify_seconds, 0.02);
  EXPECT_EQ(r.proof_bytes, 8096u);
  ASSERT_EQ(r.stages.size(), 2u);
  EXPECT_EQ(r.stages[0].name, "advice-commit");
  EXPECT_TRUE(r.stages[1].kernels == report.stages[1].kernels);
  EXPECT_TRUE(r.kernels == report.kernels);
  EXPECT_EQ(r.rss_hwm_kb, 123456u);

  // Schema mismatch is rejected, the retired v1 included.
  for (const char* schema : {"zkml.run_report/v999", "zkml.run_report/v1"}) {
    Json wrong = report.ToJson();
    wrong.Set("schema", schema);
    EXPECT_FALSE(obs::RunReport::FromJson(wrong).ok()) << schema;
  }
  // So is a report without a plan, or whose circuits disagree with it.
  Json no_plan = report.ToJson();
  no_plan.Set("plan", Json());
  EXPECT_FALSE(obs::RunReport::FromJson(no_plan).ok());
  obs::RunReport one_short = report;
  one_short.circuits.pop_back();
  EXPECT_FALSE(obs::RunReport::FromJson(one_short.ToJson()).ok());
}

// ---------------------------------------------------------------------------
// Prover integration

constexpr int kTestK = 5;
constexpr size_t kTestN = 1u << kTestK;

// Mirrors plonk_test.cc's cube-lookup circuit. A lookup argument ensures all
// commitment-bearing prover rounds (advice, lookup multiplicities, lookup +
// permutation grand products, quotient, openings) do kernel work.
struct CubeLookupCircuit {
  ConstraintSystem cs;
  Column inst, v, w, sel, tbl_in, tbl_out;
  static constexpr int64_t kTableSize = 16;

  CubeLookupCircuit() {
    inst = cs.AddInstanceColumn();
    v = cs.AddAdviceColumn(true);
    w = cs.AddAdviceColumn(true);
    sel = cs.AddFixedColumn();
    tbl_in = cs.AddFixedColumn();
    tbl_out = cs.AddFixedColumn();
    Expression q = Expression::Query(sel);
    cs.AddLookup("cube", {q * Expression::Query(v), q * Expression::Query(w)},
                 {tbl_in, tbl_out});
  }

  Assignment MakeAssignment(const std::vector<int64_t>& xs) const {
    Assignment asn(cs, kTestN);
    for (int64_t i = 0; i < kTableSize; ++i) {
      asn.SetFixed(tbl_in, static_cast<size_t>(i), Fr::FromInt64(i));
      asn.SetFixed(tbl_out, static_cast<size_t>(i), Fr::FromInt64(i * i * i));
    }
    for (size_t i = 0; i < xs.size(); ++i) {
      asn.SetFixed(sel, i, Fr::One());
      asn.SetAdvice(v, i, Fr::FromInt64(xs[i]));
      asn.SetAdvice(w, i, Fr::FromInt64(xs[i] * xs[i] * xs[i]));
    }
    asn.SetInstance(inst, 0, asn.Get(w, 0));
    asn.Copy(Cell{inst, 0}, Cell{w, 0});
    return asn;
  }
};

TEST(TraceTest, ProverStageSpansSumToActivityAggregate) {
  CubeLookupCircuit circuit;
  Assignment asn = circuit.MakeAssignment({2, 3, 4, 5});
  auto pcs = std::make_unique<KzgPcs>(std::make_shared<KzgSetup>(KzgSetup::Create(kTestN, 11)));
  ProvingKey pk = Keygen(circuit.cs, asn, *pcs, kTestK);

  obs::Tracer tracer;
  ProverMetrics metrics;
  {
    obs::TracerScope scope(&tracer);
    std::vector<uint8_t> proof = CreateProof(pk, *pcs, asn, &metrics);
    ASSERT_FALSE(proof.empty());
  }

  const std::vector<obs::SpanRecord> records = tracer.Records();
  int64_t prove_id = -1;
  KernelCounters prove_kernels;
  for (const obs::SpanRecord& r : records) {
    if (r.name == "prove") {
      prove_id = r.id;
      prove_kernels = r.kernels;
    }
  }
  ASSERT_GE(prove_id, 0) << "no top-level prove span recorded";

  // Direct children of the prove span are the protocol stages; their kernel
  // deltas must sum exactly to the prove span's aggregate (PCS sub-spans
  // nest one level deeper and are already counted by their stage).
  KernelCounters stage_sum;
  int stages_with_kernels = 0;
  int num_stage_spans = 0;
  for (const obs::SpanRecord& r : records) {
    if (r.parent != prove_id) {
      continue;
    }
    ++num_stage_spans;
    stage_sum = stage_sum + r.kernels;
    if (r.kernels.fft_calls + r.kernels.msm_calls > 0) {
      ++stages_with_kernels;
    }
  }
  EXPECT_EQ(num_stage_spans, 6);  // the six prover rounds
  EXPECT_GE(stages_with_kernels, 5) << "acceptance: >=5 stages with kernel work";
  EXPECT_TRUE(stage_sum == prove_kernels)
      << "per-stage kernel deltas must sum to the prove span aggregate";
  EXPECT_GT(prove_kernels.fft_calls, 0u);
  EXPECT_GT(prove_kernels.msm_calls, 0u);

  // The span-level stage accounting agrees with the legacy ProverMetrics
  // stage recorder (they sample the same scoped sink).
  KernelCounters metrics_sum;
  for (const ProverStageMetrics& s : metrics.stages) {
    metrics_sum = metrics_sum + s.kernels;
  }
  EXPECT_TRUE(metrics_sum == prove_kernels);
}

// ---------------------------------------------------------------------------
// Circuit profiler

TEST(CircuitProfileTest, LayerRowsSumToGrid) {
  const Model model = MakeMnistCnn();
  const PhysicalLayout layout = SimulateLayout(model, GadgetSetForModel(model), 14);
  const obs::CircuitProfile profile = obs::ProfileCircuit(model, layout);

  EXPECT_EQ(profile.k, layout.k);
  EXPECT_EQ(profile.total_rows, static_cast<uint64_t>(1) << layout.k);
  // One entry per op, plus (public-io) and (padding).
  ASSERT_EQ(profile.layers.size(), model.ops.size() + 2);
  uint64_t row_sum = 0;
  uint64_t cell_sum = 0;
  uint64_t lookup_sum = 0;
  for (const obs::LayerProfile& layer : profile.layers) {
    row_sum += layer.rows;
    cell_sum += layer.cells;
    lookup_sum += layer.lookups;
  }
  EXPECT_EQ(row_sum, profile.total_rows) << "per-layer rows + padding must cover the 2^k grid";
  EXPECT_EQ(cell_sum, profile.total_cells);
  EXPECT_EQ(lookup_sum, profile.total_lookups);
  EXPECT_GT(profile.total_cells, 0u);
  EXPECT_GT(profile.total_lookups, 0u);

  // The table and JSON render without issue and carry the totals.
  const std::string table = profile.ToTable();
  EXPECT_NE(table.find("(padding)"), std::string::npos);
  const Json j = profile.ToJson();
  EXPECT_EQ(j.Find("schema")->AsString(), "zkml.circuit_profile/v1");
  EXPECT_EQ(j.Find("total_rows")->AsUint(), profile.total_rows);
  EXPECT_TRUE(Json::Parse(j.DumpPretty()).ok());
}

}  // namespace
}  // namespace zkml
