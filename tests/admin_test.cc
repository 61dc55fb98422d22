// Ops-plane integration tests: the AdminServer HTTP surface itself, then the
// live endpoints against a real proving daemon — /healthz drain transitions,
// /metrics scrape deltas matching the work done, /statusz naming the stage
// and elapsed time of an in-flight job, and /tracez holding sampled traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/http.h"
#include "src/model/serialize.h"
#include "src/model/zoo.h"
#include "src/obs/exposition.h"
#include "src/obs/json.h"
#include "src/serve/admin.h"
#include "src/serve/client.h"
#include "src/serve/server.h"

namespace zkml {
namespace serve {
namespace {

constexpr int kHttpMs = 5000;
constexpr int kProveWaitMs = 120000;

HttpResponse MustGet(uint16_t port, const std::string& target) {
  StatusOr<HttpResponse> resp = HttpGet("127.0.0.1", port, target, kHttpMs);
  EXPECT_TRUE(resp.ok()) << target << ": " << resp.status().ToString();
  return resp.ok() ? std::move(*resp) : HttpResponse{};
}

obs::Json MustJson(const std::string& body) {
  StatusOr<obs::Json> j = obs::Json::Parse(body);
  EXPECT_TRUE(j.ok()) << j.status().ToString() << "\nbody: " << body;
  return j.ok() ? std::move(*j) : obs::Json();
}

TEST(AdminServerTest, RoutesMethodsAndUnknownPaths) {
  AdminOptions opts;  // ephemeral port
  AdminServer admin(opts);
  admin.AddRoute("/hello", "text/plain", [] { return std::make_pair(200, std::string("hi\n")); });
  ASSERT_TRUE(admin.Start().ok());
  ASSERT_NE(admin.port(), 0);

  EXPECT_EQ(MustGet(admin.port(), "/hello").status_code, 200);
  EXPECT_EQ(MustGet(admin.port(), "/hello").body, "hi\n");
  // The query string is ignored for routing.
  EXPECT_EQ(MustGet(admin.port(), "/hello?x=1").status_code, 200);
  EXPECT_EQ(MustGet(admin.port(), "/nope").status_code, 404);
  EXPECT_EQ(admin.requests_served(), 3u);

  // Non-GET is answered 405, and a malformed request line 400 — by hand,
  // since HttpGet only speaks GET.
  {
    StatusOr<Socket> sock = Socket::ConnectTcp("127.0.0.1", admin.port(), kHttpMs);
    ASSERT_TRUE(sock.ok());
    const std::string post = "POST /hello HTTP/1.0\r\n\r\n";
    ASSERT_TRUE(sock->WriteFull(post.data(), post.size(), kHttpMs).ok());
    char buf[256] = {};
    StatusOr<size_t> n = sock->ReadSome(buf, sizeof(buf), kHttpMs);
    ASSERT_TRUE(n.ok());
    EXPECT_NE(std::string(buf, *n).find("405"), std::string::npos);
  }
  {
    StatusOr<Socket> sock = Socket::ConnectTcp("127.0.0.1", admin.port(), kHttpMs);
    ASSERT_TRUE(sock.ok());
    const std::string junk = "not an http request\r\n\r\n";
    ASSERT_TRUE(sock->WriteFull(junk.data(), junk.size(), kHttpMs).ok());
    char buf[256] = {};
    StatusOr<size_t> n = sock->ReadSome(buf, sizeof(buf), kHttpMs);
    ASSERT_TRUE(n.ok());
    EXPECT_NE(std::string(buf, *n).find("400"), std::string::npos);
  }

  admin.Stop();
}

ServeOptions OpsServe(const std::string& event_log) {
  ServeOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;
  options.poll_interval_ms = 20;
  options.io_timeout_ms = 2000;
  options.watchdog_period_ms = 10;
  options.drain_timeout_ms = 60000;
  options.optimizer_min_columns = 10;
  options.optimizer_max_columns = 26;
  options.optimizer_max_k = 14;
  options.admin_port = 0;  // ephemeral
  options.trace_sample_every = 1;
  options.trace_ring_capacity = 4;
  options.event_log_path = event_log;
  return options;
}

double MetricValue(const obs::PromText& page, std::string_view name) {
  const obs::PromSample* s = page.Find(name);
  return s == nullptr ? 0.0 : s->value;
}

TEST(AdminTest, OpsPlaneEndToEnd) {
  const std::string event_log = ::testing::TempDir() + "/admin_test_events.jsonl";
  ZkmlServer server(OpsServe(event_log));
  ASSERT_TRUE(server.Start().ok());
  const uint16_t admin = server.admin_port();
  ASSERT_NE(admin, 0);

  // Liveness before any work.
  EXPECT_EQ(MustGet(admin, "/healthz").status_code, 200);
  EXPECT_EQ(MustGet(admin, "/healthz").body, "ok\n");
  EXPECT_EQ(MustGet(admin, "/nope").status_code, 404);

  // serve.* metrics are process-global, so measure this server's work as a
  // scrape delta (exactly what zkml_loadgen does against a live daemon).
  StatusOr<obs::PromText> before = obs::ParsePrometheusText(MustGet(admin, "/metrics").body);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // One prove on a background thread while /statusz is polled: the worker
  // table must name the running job's stage and a growing elapsed time.
  StatusOr<ZkmlClient> client = ZkmlClient::Connect("127.0.0.1", server.port(), kHttpMs);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ProveRequest req;
  req.model_text = SerializeModel(MakeMnistCnn());
  req.seed = 3;
  StatusOr<ZkmlClient::ProveOutcome> outcome = ZkmlClient::ProveOutcome{};
  std::thread prover([&] { outcome = client->Prove(req, 1, kProveWaitMs); });

  std::set<std::string> stages_seen;
  double max_elapsed = 0.0;
  bool saw_job_id = false;
  const auto poll_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(90);
  while (std::chrono::steady_clock::now() < poll_deadline) {
    const obs::Json status = MustJson(MustGet(admin, "/statusz").body);
    const obs::Json* workers = status.Find("workers");
    ASSERT_NE(workers, nullptr);
    bool any_running = false;
    for (const obs::Json& row : workers->items()) {
      const obs::Json* state = row.Find("state");
      ASSERT_NE(state, nullptr);
      if (state->AsString() != "running") continue;
      any_running = true;
      ASSERT_NE(row.Find("stage"), nullptr);
      ASSERT_NE(row.Find("elapsed_s"), nullptr);
      ASSERT_NE(row.Find("job_id"), nullptr);
      stages_seen.insert(row.Find("stage")->AsString());
      max_elapsed = std::max(max_elapsed, row.Find("elapsed_s")->AsDouble());
      saw_job_id = saw_job_id || row.Find("job_id")->AsUint() > 0;
    }
    const obs::Json* counters = status.Find("counters");
    ASSERT_NE(counters, nullptr);
    if (!any_running && counters->Find("jobs_completed")->AsUint() > 0) {
      break;  // the job came and went
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  prover.join();
  ASSERT_TRUE(outcome.ok() && outcome->ok);
  // Proving dominates the job's runtime, so polling every 5ms must have
  // caught the worker mid-prove with stage attribution and elapsed time.
  EXPECT_TRUE(stages_seen.count("prove") == 1)
      << "stages seen: " << ::testing::PrintToString(stages_seen);
  EXPECT_GT(max_elapsed, 0.0);
  EXPECT_TRUE(saw_job_id);

  // The scrape delta reflects exactly one completed job, and the exposition
  // obeys the bucket contract.
  StatusOr<obs::PromText> after = obs::ParsePrometheusText(MustGet(admin, "/metrics").body);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(MetricValue(*after, "serve_jobs_completed") -
                MetricValue(*before, "serve_jobs_completed"),
            1.0);
  const obs::PromSample* inf = after->Find("serve_job_seconds_bucket", "le", "+Inf");
  const obs::PromSample* count = after->Find("serve_job_seconds_count");
  ASSERT_NE(inf, nullptr);
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(inf->value, count->value);
  EXPECT_GE(MetricValue(*after, "serve_stage_seconds_prove_count") -
                MetricValue(*before, "serve_stage_seconds_prove_count"),
            1.0);

  // Every job is sampled (trace_sample_every=1): /tracez holds the trace,
  // with the explicit serve-stage spans and the job's identifiers.
  const obs::Json tracez = MustJson(MustGet(admin, "/tracez").body);
  EXPECT_EQ(tracez.Find("schema")->AsString(), "zkml.tracez/v1");
  const obs::Json* traces = tracez.Find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_GE(traces->size(), 1u);
  const obs::Json& trace = traces->items().back();
  EXPECT_EQ(trace.Find("outcome")->AsString(), "ok");
  EXPECT_GT(trace.Find("job_id")->AsUint(), 0u);
  const obs::Json* spans = trace.Find("spans");
  ASSERT_NE(spans, nullptr);
  bool has_prove_span = false;
  for (const obs::Json& span : spans->items()) {
    if (span.Find("name") != nullptr && span.Find("name")->AsString() == "serve.prove") {
      has_prove_span = true;
    }
  }
  EXPECT_TRUE(has_prove_span);

  // Drain flips /healthz to 503 and /statusz to draining, while the admin
  // plane itself stays up.
  server.RequestDrain();
  EXPECT_EQ(MustGet(admin, "/healthz").status_code, 503);
  EXPECT_TRUE(MustJson(MustGet(admin, "/statusz").body).Find("draining")->AsBool());

  server.Stop();

  // The event log recorded the lifecycle.
  std::ifstream in(event_log);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"event\":\"server_started\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"job_admitted\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"job_completed\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"drain_started\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"server_stopped\""), std::string::npos);
}

TEST(AdminTest, StatuszShowsShardMarkerWhileShardedJobRuns) {
  ZkmlServer server(OpsServe(""));
  ASSERT_TRUE(server.Start().ok());
  const uint16_t admin = server.admin_port();

  // One 2-shard prove on a background thread while /statusz is polled: the
  // running job's row must carry a "done/total" shard marker.
  StatusOr<ZkmlClient> client = ZkmlClient::Connect("127.0.0.1", server.port(), kHttpMs);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ProveRequest req;
  req.model_text = SerializeModel(MakeMnistCnn());
  req.seed = 5;
  req.shards = 2;
  StatusOr<ZkmlClient::ProveOutcome> outcome = ZkmlClient::ProveOutcome{};
  std::atomic<bool> done{false};
  std::thread prover([&] {
    outcome = client->Prove(req, 1, kProveWaitMs);
    done.store(true);
  });

  std::set<std::string> markers;
  while (!done.load()) {
    const obs::Json status = MustJson(MustGet(admin, "/statusz").body);
    for (const obs::Json& row : status.Find("workers")->items()) {
      if (const obs::Json* shard = row.Find("shard")) markers.insert(shard->AsString());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  prover.join();
  ASSERT_TRUE(outcome.ok() && outcome->ok);
  EXPECT_EQ(outcome->response.shards, 2u);
  ASSERT_FALSE(markers.empty()) << "no /statusz row carried a shard marker";
  for (const std::string& marker : markers) {
    EXPECT_TRUE(marker == "0/2" || marker == "1/2" || marker == "2/2") << marker;
  }
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace zkml
