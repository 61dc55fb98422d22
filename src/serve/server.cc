#include "src/serve/server.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <optional>
#include <utility>

#include "src/model/serialize.h"
#include "src/model/zoo.h"
#include "src/obs/exposition.h"
#include "src/obs/metrics.h"
#include "src/tensor/quantizer.h"
#include "src/zkml/plan.h"

namespace zkml {
namespace serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

uint64_t MicrosBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  if (b <= a) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

double SecondsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return b <= a ? 0.0 : std::chrono::duration<double>(b - a).count();
}

// One bucket layout for every per-stage latency histogram: sub-millisecond
// admission waits through minute-long proofs.
const std::vector<double> kStageSecondsBuckets = {
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60};

}  // namespace

// One admitted prove job. The handler thread blocks on `done`; the worker
// fills exactly one of response/error before fulfilling the promise, so the
// future's happens-before edge publishes the result fields without a lock.
struct ZkmlServer::Job {
  uint64_t id = 0;
  uint64_t request_id = 0;
  ProveRequest request;
  uint32_t deadline_ms = 0;

  // shared_ptr so the watchdog can hold the token while the worker runs.
  std::shared_ptr<CancelToken> cancel = std::make_shared<CancelToken>();
  SteadyClock::time_point enqueued;
  SteadyClock::time_point deadline_tp;
  std::atomic<bool> reaped{false};

  // Live progress for /statusz: the pipeline stage the worker is in and which
  // worker holds the job. Written by the worker, read by the admin thread.
  std::atomic<uint8_t> stage{static_cast<uint8_t>(WireStage::kAdmission)};
  std::atomic<int> worker{-1};
  // Sharded-prove progress (zero total = single-circuit job). shards_done is
  // bumped from pool threads as shard proofs land, read by /statusz.
  std::atomic<uint32_t> shards_total{0};
  std::atomic<uint32_t> shards_done{0};

  std::promise<void> done_promise;
  std::shared_future<void> done;

  bool ok = false;
  ProveResponse response;
  WireError error;
};

struct ZkmlServer::Connection {
  Socket sock;
  std::atomic<bool> finished{false};
};

// Server-local counters (stats() must not bleed across server instances in
// tests) mirrored into the process-global serve.* metrics on every bump.
struct ZkmlServer::Counters {
  struct Stat {
    std::atomic<uint64_t> value{0};
    obs::Counter* global = nullptr;
    void Inc(uint64_t d = 1) {
      value.fetch_add(d, std::memory_order_relaxed);
      global->Increment(d);
    }
    uint64_t Get() const { return value.load(std::memory_order_relaxed); }
  };

  Stat connections_accepted, connections_rejected, protocol_errors, slow_clients_closed;
  Stat jobs_accepted, jobs_completed, jobs_shed_overload, jobs_deadline_exceeded;
  Stat jobs_cancelled, jobs_rejected_malformed, jobs_failed_internal, watchdog_reaped;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* running_jobs = nullptr;
  obs::Histogram* job_seconds = nullptr;

  // Per-stage serve latency (admission = queue wait, respond = write-back).
  obs::Histogram* stage_admission = nullptr;
  obs::Histogram* stage_compile = nullptr;
  obs::Histogram* stage_witness = nullptr;
  obs::Histogram* stage_prove = nullptr;
  obs::Histogram* stage_respond = nullptr;

  // Rejections keyed by the WireStage named in the error frame (every
  // SendError lands in exactly one slot).
  static constexpr size_t kNumStages = 8;
  Stat rejections[kNumStages];

  Counters() {
    auto& reg = obs::MetricsRegistry::Global();
    connections_accepted.global = &reg.counter("serve.connections_accepted");
    connections_rejected.global = &reg.counter("serve.connections_rejected");
    protocol_errors.global = &reg.counter("serve.protocol_errors");
    slow_clients_closed.global = &reg.counter("serve.slow_clients_closed");
    jobs_accepted.global = &reg.counter("serve.jobs_accepted");
    jobs_completed.global = &reg.counter("serve.jobs_completed");
    jobs_shed_overload.global = &reg.counter("serve.jobs_shed_overload");
    jobs_deadline_exceeded.global = &reg.counter("serve.jobs_deadline_exceeded");
    jobs_cancelled.global = &reg.counter("serve.jobs_cancelled");
    jobs_rejected_malformed.global = &reg.counter("serve.jobs_rejected_malformed");
    jobs_failed_internal.global = &reg.counter("serve.jobs_failed_internal");
    watchdog_reaped.global = &reg.counter("serve.watchdog_reaped");
    queue_depth = &reg.gauge("serve.queue_depth");
    running_jobs = &reg.gauge("serve.running_jobs");
    job_seconds = &reg.histogram("serve.job_seconds",
                                 {0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 30, 60});
    stage_admission = &reg.histogram("serve.stage_seconds.admission", kStageSecondsBuckets);
    stage_compile = &reg.histogram("serve.stage_seconds.compile", kStageSecondsBuckets);
    stage_witness = &reg.histogram("serve.stage_seconds.witness", kStageSecondsBuckets);
    stage_prove = &reg.histogram("serve.stage_seconds.prove", kStageSecondsBuckets);
    stage_respond = &reg.histogram("serve.stage_seconds.respond", kStageSecondsBuckets);
    for (size_t i = 0; i < kNumStages; ++i) {
      rejections[i].global = &reg.counter(
          std::string("serve.rejections.") + WireStageName(static_cast<WireStage>(i)));
    }
  }

  Stat& RejectionsFor(WireStage stage) {
    const size_t i = static_cast<size_t>(stage);
    return rejections[i < kNumStages ? i : kNumStages - 1];
  }

  // The jobs_* counter a job failed with `code` lands in.
  Stat& FailuresFor(WireErrorCode code) {
    switch (code) {
      case WireErrorCode::kCancelled: return jobs_cancelled;
      case WireErrorCode::kDeadlineExceeded: return jobs_deadline_exceeded;
      case WireErrorCode::kInternal: return jobs_failed_internal;
      default: return jobs_rejected_malformed;
    }
  }
};

ZkmlServer::ZkmlServer(const ServeOptions& options)
    : options_(options),
      cache_(options.cache_capacity),
      trace_ring_(options.trace_ring_capacity),
      counters_(std::make_unique<Counters>()) {}

ZkmlServer::~ZkmlServer() { Stop(); }

Status ZkmlServer::Start() {
  ZKML_ASSIGN_OR_RETURN(listener_, ListenSocket::Listen(options_.port));
  started_at_ = SteadyClock::now();
  if (!options_.event_log_path.empty()) {
    ZKML_ASSIGN_OR_RETURN(
        event_log_, obs::EventLog::Open(options_.event_log_path, options_.event_log_max_bytes));
  }
  if (options_.admin_port >= 0) {
    ZKML_RETURN_IF_ERROR(StartAdmin());
  }
  started_.store(true, std::memory_order_relaxed);
  acceptor_ = std::thread(&ZkmlServer::AcceptLoop, this);
  const int n = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back(&ZkmlServer::WorkerLoop, this, i);
  }
  watchdog_ = std::thread(&ZkmlServer::WatchdogLoop, this);
  obs::Json fields = obs::Json::Object();
  fields.Set("port", static_cast<uint64_t>(port()));
  fields.Set("admin_port", static_cast<uint64_t>(admin_port()));
  fields.Set("workers", static_cast<uint64_t>(n));
  fields.Set("queue_capacity", static_cast<uint64_t>(options_.queue_capacity));
  LogEvent("server_started", std::move(fields));
  return Status::Ok();
}

void ZkmlServer::RequestDrain() {
  if (!draining_.exchange(true, std::memory_order_relaxed)) {
    LogEvent("drain_started", obs::Json::Object());
  }
}

void ZkmlServer::Stop() {
  if (!started_.exchange(false)) {
    return;
  }
  RequestDrain();

  // Let queued + running jobs finish within the drain budget, then cancel
  // whatever remains (cancelled jobs still flow through a worker so their
  // handlers get an explicit CANCELLED response).
  const auto drain_deadline =
      SteadyClock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
  bool cancelled_stragglers = false;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.empty() && running_.empty()) {
        break;
      }
      if (!cancelled_stragglers && SteadyClock::now() >= drain_deadline) {
        for (auto& job : queue_) job->cancel->Cancel();
        for (auto& job : running_) job->cancel->Cancel();
        cancelled_stragglers = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Workers exit once the stop flag is up and the queue is dry.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  // Handler threads notice stopping_ at their next poll tick; every pending
  // future is already fulfilled, so the longest wait is one io_timeout write.
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
    conn_threads_.clear();
  }
  if (watchdog_.joinable()) watchdog_.join();
  listener_.Close();
  PublishMetrics();

  obs::Json fields = obs::Json::Object();
  fields.Set("jobs_completed", counters_->jobs_completed.Get());
  fields.Set("uptime_s", SecondsBetween(started_at_, SteadyClock::now()));
  LogEvent("server_stopped", std::move(fields));
  // The admin plane outlives the prover path so operators can watch the drain;
  // it goes down last.
  if (admin_ != nullptr) {
    admin_->Stop();
  }
}

ServerStats ZkmlServer::stats() const {
  ServerStats s;
  const Counters& c = *counters_;
  s.connections_accepted = c.connections_accepted.Get();
  s.connections_rejected = c.connections_rejected.Get();
  s.protocol_errors = c.protocol_errors.Get();
  s.slow_clients_closed = c.slow_clients_closed.Get();
  s.jobs_accepted = c.jobs_accepted.Get();
  s.jobs_completed = c.jobs_completed.Get();
  s.jobs_shed_overload = c.jobs_shed_overload.Get();
  s.jobs_deadline_exceeded = c.jobs_deadline_exceeded.Get();
  s.jobs_cancelled = c.jobs_cancelled.Get();
  s.jobs_rejected_malformed = c.jobs_rejected_malformed.Get();
  s.jobs_failed_internal = c.jobs_failed_internal.Get();
  s.watchdog_reaped = c.watchdog_reaped.Get();
  const CacheStats cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(queue_mu_));
    s.queue_depth = queue_.size();
    s.running_jobs = running_.size();
  }
  s.open_connections = open_connections_.load(std::memory_order_relaxed);
  return s;
}

void ZkmlServer::PublishMetrics() {
  size_t depth, running;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = queue_.size();
    running = running_.size();
  }
  counters_->queue_depth->Set(static_cast<double>(depth));
  counters_->running_jobs->Set(static_cast<double>(running));
}

Status ZkmlServer::StartAdmin() {
  AdminOptions opts;
  opts.port = static_cast<uint16_t>(options_.admin_port);
  admin_ = std::make_unique<AdminServer>(opts);
  admin_->AddRoute("/metrics", "text/plain; version=0.0.4",
                   [this] { return std::make_pair(200, MetricsText()); });
  admin_->AddRoute("/healthz", "text/plain", [this] {
    return draining() ? std::make_pair(503, std::string("draining\n"))
                      : std::make_pair(200, std::string("ok\n"));
  });
  admin_->AddRoute("/statusz", "application/json",
                   [this] { return std::make_pair(200, StatusJson().DumpPretty() + "\n"); });
  admin_->AddRoute("/tracez", "application/json", [this] {
    obs::Json doc = obs::Json::Object();
    doc.Set("schema", "zkml.tracez/v1");
    doc.Set("capacity", static_cast<uint64_t>(trace_ring_.capacity()));
    doc.Set("sampled_total", trace_ring_.added());
    obs::Json traces = obs::Json::Array();
    for (obs::Json& t : trace_ring_.Snapshot()) {
      traces.Append(std::move(t));
    }
    doc.Set("traces", std::move(traces));
    return std::make_pair(200, doc.DumpPretty() + "\n");
  });
  return admin_->Start();
}

std::string ZkmlServer::MetricsText() const {
  // A scrape observes the same freshness the watchdog maintains: gauges and
  // rate windows are re-sampled at the moment of exposition.
  const_cast<ZkmlServer*>(this)->PublishMetrics();
  SampleRates();
  return obs::RenderPrometheus(obs::MetricsRegistry::Global().Snapshot());
}

void ZkmlServer::SampleRates() const {
  const auto now = obs::RateWindows::Clock::now();
  const Counters& c = *counters_;
  rates_.Sample("jobs_accepted", c.jobs_accepted.Get(), now);
  rates_.Sample("jobs_completed", c.jobs_completed.Get(), now);
  rates_.Sample("jobs_shed_overload", c.jobs_shed_overload.Get(), now);
  rates_.Sample("jobs_deadline_exceeded", c.jobs_deadline_exceeded.Get(), now);
  rates_.Sample("protocol_errors", c.protocol_errors.Get(), now);
  rates_.Sample("connections_accepted", c.connections_accepted.Get(), now);
}

void ZkmlServer::LogEvent(const std::string& event, obs::Json fields) const {
  if (event_log_ != nullptr) {
    event_log_->Log(event, std::move(fields));
  }
}

namespace {

obs::Json RatesJson(const obs::RateWindows::Rates& r) {
  obs::Json j = obs::Json::Object();
  j.Set("1s", r.per_sec_1s);
  j.Set("10s", r.per_sec_10s);
  j.Set("60s", r.per_sec_60s);
  return j;
}

// p50/p90/p99 summary for one histogram out of a registry snapshot; null
// when the histogram has not been registered yet.
obs::Json QuantilesJson(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [hname, h] : snap.histograms) {
    if (hname != name) continue;
    obs::Json j = obs::Json::Object();
    j.Set("count", h.count);
    j.Set("sum_s", h.sum);
    j.Set("p50_s", obs::HistogramQuantile(h, 0.5));
    j.Set("p90_s", obs::HistogramQuantile(h, 0.9));
    j.Set("p99_s", obs::HistogramQuantile(h, 0.99));
    return j;
  }
  return obs::Json();
}

}  // namespace

obs::Json ZkmlServer::StatusJson() const {
  const auto now = SteadyClock::now();
  SampleRates();

  obs::Json doc = obs::Json::Object();
  doc.Set("schema", "zkml.statusz/v1");
  doc.Set("uptime_s", SecondsBetween(started_at_, now));
  doc.Set("draining", draining());
  doc.Set("port", static_cast<uint64_t>(port()));
  doc.Set("admin_port", static_cast<uint64_t>(admin_port()));

  // Worker table: every worker is either idle or holds exactly one running
  // job; queued jobs have no worker yet and show up only in queue_depth.
  const int n = std::max(1, options_.num_workers);
  std::vector<obs::Json> worker_rows(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    obs::Json row = obs::Json::Object();
    row.Set("worker", static_cast<uint64_t>(i));
    row.Set("state", "idle");
    worker_rows[static_cast<size_t>(i)] = std::move(row);
  }
  size_t queue_depth = 0, running_jobs = 0;
  {
    auto& mu = const_cast<std::mutex&>(queue_mu_);
    std::lock_guard<std::mutex> lock(mu);
    queue_depth = queue_.size();
    running_jobs = running_.size();
    for (const auto& job : running_) {
      const int w = job->worker.load(std::memory_order_relaxed);
      if (w < 0 || w >= n) continue;
      obs::Json row = obs::Json::Object();
      row.Set("worker", static_cast<uint64_t>(w));
      row.Set("state", "running");
      row.Set("job_id", job->id);
      row.Set("request_id", job->request_id);
      row.Set("stage", WireStageName(static_cast<WireStage>(
                           job->stage.load(std::memory_order_relaxed))));
      const uint32_t shards_total = job->shards_total.load(std::memory_order_relaxed);
      if (shards_total > 0) {
        // Per-shard stage marker, e.g. "2/4" = two of four shard proofs done.
        row.Set("shard", std::to_string(job->shards_done.load(std::memory_order_relaxed)) +
                             "/" + std::to_string(shards_total));
      }
      row.Set("elapsed_s", SecondsBetween(job->enqueued, now));
      row.Set("deadline_in_s", SecondsBetween(now, job->deadline_tp));
      row.Set("reaped", job->reaped.load(std::memory_order_relaxed));
      worker_rows[static_cast<size_t>(w)] = std::move(row);
    }
  }
  obs::Json workers = obs::Json::Array();
  for (auto& row : worker_rows) {
    workers.Append(std::move(row));
  }
  doc.Set("workers", std::move(workers));

  obs::Json queue = obs::Json::Object();
  queue.Set("depth", static_cast<uint64_t>(queue_depth));
  queue.Set("capacity", static_cast<uint64_t>(options_.queue_capacity));
  queue.Set("running", static_cast<uint64_t>(running_jobs));
  queue.Set("open_connections",
            static_cast<uint64_t>(open_connections_.load(std::memory_order_relaxed)));
  doc.Set("queue", std::move(queue));

  const CacheStats cs = cache_.stats();
  obs::Json cache = obs::Json::Object();
  cache.Set("entries", static_cast<uint64_t>(cs.entries));
  cache.Set("capacity", static_cast<uint64_t>(options_.cache_capacity));
  cache.Set("hits", cs.hits);
  cache.Set("misses", cs.misses);
  cache.Set("evictions", cs.evictions);
  doc.Set("cache", std::move(cache));

  const Counters& c = *counters_;
  obs::Json counters = obs::Json::Object();
  counters.Set("connections_accepted", c.connections_accepted.Get());
  counters.Set("connections_rejected", c.connections_rejected.Get());
  counters.Set("protocol_errors", c.protocol_errors.Get());
  counters.Set("slow_clients_closed", c.slow_clients_closed.Get());
  counters.Set("jobs_accepted", c.jobs_accepted.Get());
  counters.Set("jobs_completed", c.jobs_completed.Get());
  counters.Set("jobs_shed_overload", c.jobs_shed_overload.Get());
  counters.Set("jobs_deadline_exceeded", c.jobs_deadline_exceeded.Get());
  counters.Set("jobs_cancelled", c.jobs_cancelled.Get());
  counters.Set("jobs_rejected_malformed", c.jobs_rejected_malformed.Get());
  counters.Set("jobs_failed_internal", c.jobs_failed_internal.Get());
  counters.Set("watchdog_reaped", c.watchdog_reaped.Get());
  doc.Set("counters", std::move(counters));

  obs::Json rejections = obs::Json::Object();
  for (size_t i = 0; i < Counters::kNumStages; ++i) {
    rejections.Set(WireStageName(static_cast<WireStage>(i)), c.rejections[i].Get());
  }
  doc.Set("rejections_by_stage", std::move(rejections));

  obs::Json rates = obs::Json::Object();
  for (const char* name : {"jobs_accepted", "jobs_completed", "jobs_shed_overload",
                           "jobs_deadline_exceeded", "protocol_errors",
                           "connections_accepted"}) {
    rates.Set(name, RatesJson(rates_.RatesFor(name, obs::RateWindows::Clock::now())));
  }
  doc.Set("rates_per_sec", std::move(rates));

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  obs::Json latency = obs::Json::Object();
  latency.Set("job", QuantilesJson(snap, "serve.job_seconds"));
  for (const char* stage : {"admission", "compile", "witness", "prove", "respond"}) {
    latency.Set(stage, QuantilesJson(snap, std::string("serve.stage_seconds.") + stage));
  }
  doc.Set("latency_seconds", std::move(latency));

  obs::Json tracez = obs::Json::Object();
  tracez.Set("capacity", static_cast<uint64_t>(trace_ring_.capacity()));
  tracez.Set("held", static_cast<uint64_t>(trace_ring_.size()));
  tracez.Set("sampled_total", trace_ring_.added());
  tracez.Set("sample_every", static_cast<uint64_t>(options_.trace_sample_every));
  doc.Set("traces", std::move(tracez));

  obs::Json events = obs::Json::Object();
  if (event_log_ != nullptr) {
    const obs::EventLog::Stats es = event_log_->stats();
    events.Set("path", event_log_->path());
    events.Set("events", es.events);
    events.Set("rotations", es.rotations);
    events.Set("write_failures", es.write_failures);
  } else {
    events.Set("path", obs::Json());
  }
  doc.Set("event_log", std::move(events));

  if (admin_ != nullptr) {
    doc.Set("admin_requests_served", admin_->requests_served());
  }
  return doc;
}

void ZkmlServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    StatusOr<Socket> sock = listener_.Accept(options_.poll_interval_ms);
    if (!sock.ok()) {
      if (sock.status().code() == StatusCode::kDeadlineExceeded) {
        continue;  // poll tick: re-check the stop flag
      }
      break;  // listener closed
    }
    if (draining_.load(std::memory_order_relaxed)) {
      continue;  // drop: socket closes, peer sees EOF instead of a hang
    }
    if (open_connections_.load(std::memory_order_relaxed) >= options_.max_connections) {
      counters_->connections_rejected.Inc();
      continue;
    }
    counters_->connections_accepted.Inc();
    auto conn = std::make_shared<Connection>();
    conn->sock = std::move(*sock);
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mu_);
    // Reap handler threads that already finished so a long-lived daemon does
    // not accumulate one zombie std::thread per past connection.
    // (Pairs finished-flag checks with the thread at the same index.)
    for (size_t i = 0; i < conn_threads_.size();) {
      if (conn_refs_[i]->finished.load(std::memory_order_acquire)) {
        conn_threads_[i].join();
        conn_threads_[i] = std::move(conn_threads_.back());
        conn_threads_.pop_back();
        conn_refs_[i] = std::move(conn_refs_.back());
        conn_refs_.pop_back();
      } else {
        ++i;
      }
    }
    conn_refs_.push_back(conn);
    conn_threads_.emplace_back([this, conn] {
      HandleConnection(conn);
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
      conn->finished.store(true, std::memory_order_release);
    });
  }
}

bool ZkmlServer::SendFrame(Connection& conn, FrameType type, uint64_t request_id,
                           const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  EncodeFrame(&out, type, request_id, payload);
  Status s = conn.sock.WriteFull(out.data(), out.size(), options_.io_timeout_ms);
  if (!s.ok()) {
    if (s.code() == StatusCode::kDeadlineExceeded) {
      counters_->slow_clients_closed.Inc();
    }
    return false;
  }
  return true;
}

bool ZkmlServer::SendError(Connection& conn, uint64_t request_id, const WireError& err) {
  counters_->RejectionsFor(err.stage).Inc();
  return SendFrame(conn, FrameType::kError, request_id, EncodeWireError(err));
}

void ZkmlServer::HandleConnection(std::shared_ptr<Connection> conn) {
  uint8_t header[kFrameHeaderSize];
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Idle wait for the first byte of a frame polls the stop flag; once bytes
    // start flowing the rest of the frame must land within io_timeout_ms, so
    // a slowloris peer is cut off rather than pinning this thread.
    Status s = conn->sock.ReadFull(header, 1, options_.poll_interval_ms);
    if (!s.ok()) {
      if (s.code() == StatusCode::kDeadlineExceeded) {
        continue;  // idle connection
      }
      return;  // peer closed or socket error
    }
    s = conn->sock.ReadFull(header + 1, kFrameHeaderSize - 1, options_.io_timeout_ms);
    if (!s.ok()) {
      if (s.code() == StatusCode::kDeadlineExceeded) {
        counters_->slow_clients_closed.Inc();
      }
      return;
    }

    WireErrorCode wire_code = WireErrorCode::kInternal;
    StatusOr<FrameHeader> hdr =
        DecodeFrameHeader(header, options_.max_frame_bytes, &wire_code);
    if (!hdr.ok()) {
      // The byte stream cannot be resynchronized after a corrupt header:
      // answer (request id 0 — the id field is untrusted garbage) and close.
      counters_->protocol_errors.Inc();
      SendError(*conn, 0, {wire_code, WireStage::kFrameHeader, hdr.status().message()});
      return;
    }

    std::vector<uint8_t> payload(hdr->payload_len);
    if (hdr->payload_len > 0) {
      s = conn->sock.ReadFull(payload.data(), payload.size(), options_.io_timeout_ms);
      if (!s.ok()) {
        if (s.code() == StatusCode::kDeadlineExceeded) {
          counters_->slow_clients_closed.Inc();
        }
        return;
      }
    }
    Status crc = CheckPayloadCrc(*hdr, payload);
    if (!crc.ok()) {
      counters_->protocol_errors.Inc();
      SendError(*conn, hdr->request_id,
                {WireErrorCode::kBadCrc, WireStage::kFramePayload, crc.message()});
      return;  // payload bytes are untrustworthy — close
    }

    switch (hdr->type) {
      case FrameType::kPing:
        if (!SendFrame(*conn, FrameType::kPong, hdr->request_id, {})) return;
        continue;
      case FrameType::kProveRequest:
        break;
      default:
        // Server-to-client frame types arriving at the server are misuse.
        counters_->protocol_errors.Inc();
        SendError(*conn, hdr->request_id,
                  {WireErrorCode::kBadFrameType, WireStage::kFrameHeader,
                   "frame type is not a client request"});
        return;
    }

    StatusOr<ProveRequest> req = DecodeProveRequest(payload);
    if (!req.ok()) {
      // Structurally invalid payload behind a valid CRC: the framing is still
      // sound, so reject the request but keep the connection.
      counters_->jobs_rejected_malformed.Inc();
      if (!SendError(*conn, hdr->request_id,
                     {WireErrorCode::kMalformedRequest, WireStage::kFramePayload,
                      req.status().message()})) {
        return;
      }
      continue;
    }

    WireError admit_err;
    std::shared_ptr<Job> job = AdmitJob(std::move(*req), hdr->request_id, &admit_err);
    if (job == nullptr) {
      if (!SendError(*conn, hdr->request_id, admit_err)) return;
      continue;
    }

    // Bounded wait: the job's deadline plus the watchdog grace guarantee the
    // worker fulfills the promise.
    job->done.wait();
    const auto respond_start = SteadyClock::now();
    bool sent;
    if (job->ok) {
      sent = SendFrame(*conn, FrameType::kProveResponse, hdr->request_id,
                       EncodeProveResponse(job->response));
    } else {
      sent = SendError(*conn, hdr->request_id, job->error);
    }
    counters_->stage_respond->Record(SecondsBetween(respond_start, SteadyClock::now()));
    if (!sent) return;
  }
}

std::shared_ptr<ZkmlServer::Job> ZkmlServer::AdmitJob(ProveRequest request,
                                                      uint64_t request_id, WireError* err) {
  auto job = std::make_shared<Job>();
  job->id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  job->request_id = request_id;
  job->deadline_ms = request.deadline_ms == 0
                         ? options_.default_deadline_ms
                         : std::min(request.deadline_ms, options_.max_deadline_ms);
  job->request = std::move(request);
  job->done = job->done_promise.get_future().share();
  job->enqueued = SteadyClock::now();
  // The deadline clock starts at admission: queue wait, compile, witness, and
  // proving all spend from the same budget.
  job->deadline_tp = job->enqueued + std::chrono::milliseconds(job->deadline_ms);
  job->cancel->SetDeadline(job->deadline_tp);

  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_.load(std::memory_order_relaxed)) {
      *err = {WireErrorCode::kShuttingDown, WireStage::kAdmission,
              "daemon is draining; no new work accepted"};
      return nullptr;
    }
    if (queue_.size() >= options_.queue_capacity) {
      counters_->jobs_shed_overload.Inc();
      *err = {WireErrorCode::kOverloaded, WireStage::kAdmission,
              "job queue full (" + std::to_string(queue_.size()) + " queued); retry later"};
      depth = queue_.size();
      job = nullptr;
    } else {
      queue_.push_back(job);
      counters_->jobs_accepted.Inc();
      depth = queue_.size();
    }
  }
  // Event I/O stays outside queue_mu_ so a slow disk never blocks workers.
  obs::Json fields = obs::Json::Object();
  if (job != nullptr) fields.Set("job_id", job->id);
  fields.Set("request_id", request_id);
  fields.Set("queue_depth", static_cast<uint64_t>(depth));
  if (job == nullptr) {
    LogEvent("job_shed", std::move(fields));
    return nullptr;
  }
  fields.Set("deadline_ms", static_cast<uint64_t>(job->deadline_ms));
  LogEvent("job_admitted", std::move(fields));
  queue_cv_.notify_one();
  return job;
}

void ZkmlServer::WorkerLoop(int worker_index) {
  // A job is coalescable when it asks for exactly one inference of one circuit.
  const auto coalescable = [](const Job& j) {
    return j.request.shards <= 1 && j.request.batch <= 1;
  };
  for (;;) {
    std::vector<std::shared_ptr<Job>> group;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (queue_.empty()) {
        return;  // stopping_ and nothing left to drain
      }
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
      group.front()->worker.store(worker_index, std::memory_order_relaxed);
      running_.push_back(group.front());
      // Request coalescing: claim queued jobs for the same (model, backend)
      // so one batched circuit proves them all. Only whole jobs whose
      // deadline is no earlier than the lead's are claimed, so the lead holds
      // the group's earliest deadline; anything else stays queued.
      if (options_.coalesce_max > 1 && coalescable(*group.front())) {
        const Job& lead = *group.front();
        for (auto it = queue_.begin();
             it != queue_.end() && group.size() < options_.coalesce_max;) {
          Job& j = **it;
          if (coalescable(j) && j.request.backend == lead.request.backend &&
              j.request.model_text == lead.request.model_text &&
              j.deadline_tp >= lead.deadline_tp) {
            j.worker.store(worker_index, std::memory_order_relaxed);
            running_.push_back(*it);
            group.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
    }

    ExecuteGroup(group);
  }
}

namespace {

// Inferences one request asks for: its batch, or one when unbatched.
size_t InferencesOf(const ProveRequest& req) { return std::max<size_t>(1, req.batch); }

// The compiled-circuit cache key of each circuit of `plan`: each caches next
// to the model's other compilations.
std::vector<std::string> CacheKeys(const ProveRequest& req, const ProofPlan& plan) {
  const std::string hash = ModelHashHex(req.model_text);
  const std::string backend = req.backend == 1 ? ":ipa" : ":kzg";
  std::vector<std::string> keys;
  if (plan.shards > 1) {
    for (size_t i = 0; i < plan.shards; ++i) {
      keys.push_back(hash + ":shard" + std::to_string(i) + "/" + std::to_string(plan.shards) +
                     backend);
    }
  } else if (plan.batch > 1) {
    keys.push_back(hash + ":batch" + std::to_string(plan.batch) + backend);
  } else {
    keys.push_back(hash + backend);
  }
  return keys;
}

}  // namespace

void ZkmlServer::ExecuteGroup(const std::vector<std::shared_ptr<Job>>& group) {
  const auto started = SteadyClock::now();
  // Every Nth admitted job is sampled: one Tracer records the group's shared
  // work, and each sampled member exports the spans complete when it is
  // answered.
  const auto sampled = [&](const Job& job) {
    return options_.trace_sample_every > 0 && (job.id - 1) % options_.trace_sample_every == 0;
  };
  std::optional<obs::Tracer> tracer;
  if (std::ranges::any_of(group, [&](const auto& job) { return sampled(*job); })) tracer.emplace();
  // Finishes one member: its trace doc and event, then its handler's reply.
  const auto answer = [&](Job& job) {
    if (tracer && sampled(job)) {
      obs::Json doc = tracer->ToReportJson();
      doc.Set("job_id", job.id);
      doc.Set("request_id", job.request_id);
      doc.Set("outcome", job.ok ? "ok" : WireErrorCodeName(job.error.code));
      if (!job.ok) doc.Set("error_stage", WireStageName(job.error.stage));
      trace_ring_.Add(std::move(doc));
    }
    if (event_log_ != nullptr) {
      obs::Json fields = obs::Json::Object();
      fields.Set("job_id", job.id);
      fields.Set("request_id", job.request_id);
      if (group.size() > 1) fields.Set("coalesced", static_cast<uint64_t>(group.size()));
      fields.Set("elapsed_s", SecondsBetween(job.enqueued, SteadyClock::now()));
      const char* event = "job_completed";
      if (!job.ok) {
        const WireErrorCode code = job.error.code;
        fields.Set("error", WireErrorCodeName(code));
        fields.Set("stage", WireStageName(job.error.stage));
        event = code == WireErrorCode::kDeadlineExceeded ? "job_deadline_exceeded"
                : code != WireErrorCode::kCancelled      ? "job_failed"
                : job.reaped.load(std::memory_order_relaxed) ? "job_reaped"
                                                             : "job_cancelled";
      }
      LogEvent(event, std::move(fields));
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      std::erase_if(running_, [&](const auto& j) { return j.get() == &job; });
    }
    job.done_promise.set_value();
  };
  // Members still headed for the proof. One that fails before it is answered
  // at once; the rest are answered together when the group ends.
  std::vector<std::shared_ptr<Job>> live;
  const auto set_stage = [&](WireStage stage) {
    for (const auto& job : live) {
      job->stage.store(static_cast<uint8_t>(stage), std::memory_order_relaxed);
    }
  };
  const auto fail = [&](Job& job, WireError err) {
    counters_->FailuresFor(err.code).Inc();
    job.ok = false;
    job.error = std::move(err);
  };
  // Maps a failed Status onto the wire: watchdog/drain Cancel() → CANCELLED,
  // an expired budget → DEADLINE_EXCEEDED (naming the checkpoint that noticed,
  // e.g. "deadline exceeded at quotient"), anything else → INTERNAL.
  const auto fail_status = [&](Job& job, const Status& s, WireStage stage) {
    if (s.code() == StatusCode::kCancelled) {
      const bool reaped = job.reaped.load(std::memory_order_relaxed);
      fail(job, {WireErrorCode::kCancelled, stage,
                 (reaped ? "reaped by watchdog: " : "") + s.message()});
    } else {
      fail(job, {s.code() == StatusCode::kDeadlineExceeded ? WireErrorCode::kDeadlineExceeded
                                                           : WireErrorCode::kInternal,
                 stage, s.message()});
    }
  };

  const auto run = [&] {
    for (const auto& job : group) {
      counters_->stage_admission->Record(SecondsBetween(job->enqueued, started));
      // A job whose budget evaporated in the queue is shed before any work.
      if (const Status s = job->cancel->Check("queue-wait"); s.ok()) {
        live.push_back(job);
      } else {
        fail_status(*job, s, WireStage::kAdmission);
        answer(*job);
      }
    }
    if (live.empty()) return;

    set_stage(WireStage::kModelParse);
    // Every member carries the same model text (WorkerLoop groups by it).
    const StatusOr<Model> model = DeserializeModel(live.front()->request.model_text);
    if (!model.ok()) {
      for (const auto& job : live) {
        fail(*job, {WireErrorCode::kMalformedModel, WireStage::kModelParse,
                     model.status().message()});
      }
      return;
    }

    // An explicit input carries one model input per inference, inference-major.
    // A malformed one fails its member alone; the plan covers the rest.
    const size_t per = static_cast<size_t>(model->input_shape.NumElements());
    size_t batch = 0;
    std::vector<std::shared_ptr<Job>> fed;
    for (const auto& job : live) {
      const size_t n = InferencesOf(job->request);
      const size_t have = job->request.input.size();
      if (have != 0 && have != n * per) {
        fail(*job, {WireErrorCode::kInputMismatch, WireStage::kWitness,
                    "input has " + std::to_string(have) + " elements, model wants " +
                        std::to_string(n * per) +
                        (n > 1 ? " (" + std::to_string(per) + " per inference)" : "")});
        answer(*job);
      } else {
        fed.push_back(job);
        batch += n;
      }
    }
    live = std::move(fed);
    if (live.empty()) return;

    // The plan proving the group's inferences: the lone request's own batch,
    // or one inference per coalesced member (a coalesced group is a plan
    // whose batch was widened). A model whose graph admits no cut falls back
    // to one circuit; shards = 1 in the response tells the client what ran.
    Job& lead = *live.front();
    const StatusOr<ProofPlan> plan = ResolveProofPlan(*model, lead.request.shards, batch);
    if (!plan.ok()) {
      for (const auto& job : live) {
        fail(*job, {WireErrorCode::kMalformedRequest, WireStage::kModelParse,
                    plan.status().message()});
      }
      return;
    }
    // Per-shard progress for /statusz (a sharded plan has one member).
    if (plan->shards > 1) lead.shards_total.store(static_cast<uint32_t>(plan->shards));
    // The shared compile and proof run under the group's earliest deadline
    // (WorkerLoop makes it the lead's): that token expires, and is reaped by
    // the watchdog, no later than any other member's.
    const CancelToken& cancel =
        *(*std::min_element(live.begin(), live.end(), [](const auto& a, const auto& b) {
           return a->deadline_tp < b->deadline_tp;
         }))->cancel;

    set_stage(WireStage::kCompile);
    const auto compile_start = SteadyClock::now();
    ZkmlOptions zo;
    zo.backend = lead.request.backend == 1 ? PcsKind::kIpa : PcsKind::kKzg;
    zo.optimizer.backend = zo.backend;
    zo.optimizer.min_columns = options_.optimizer_min_columns;
    zo.optimizer.max_columns = options_.optimizer_max_columns;
    zo.optimizer.max_k = options_.optimizer_max_k;
    CompiledPlan compiled{*model, *plan};
    bool cache_hit = true;
    const Status compile_status = [&]() -> Status {
      obs::Span span("serve.compile");
      if (plan->shards > 1) {
        ZKML_ASSIGN_OR_RETURN(compiled.partition, PartitionModel(*model, plan->shards));
      }
      const std::vector<std::string> keys = CacheKeys(lead.request, *plan);
      for (size_t i = 0; i < keys.size(); ++i) {
        const CompiledModelCache::CompileFn compile =
            [&]() -> StatusOr<std::shared_ptr<const CompiledModel>> {
          cache_hit = false;
          ZKML_ASSIGN_OR_RETURN(CompiledModel circuit,
                                CompileCircuit(compiled.CircuitModel(i), plan->batch, zo));
          return std::make_shared<const CompiledModel>(std::move(circuit));
        };
        ZKML_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledModel> circuit,
                              cache_.GetOrCompile(keys[i], compile));
        compiled.circuits.push_back(std::move(circuit));
        ZKML_RETURN_IF_ERROR(cancel.Check("compile"));
      }
      return Status::Ok();
    }();
    compiled.compile_seconds = SecondsBetween(compile_start, SteadyClock::now());
    counters_->stage_compile->Record(compiled.compile_seconds);
    if (!compile_status.ok()) {
      for (const auto& job : live) fail_status(*job, compile_status, WireStage::kCompile);
      return;
    }

    set_stage(WireStage::kWitness);
    const auto witness_start = SteadyClock::now();
    std::vector<Tensor<int64_t>> inputs;
    {
      obs::Span span("serve.witness");
      // Slice i of an explicit input, or one distinct synthetic draw per
      // inference seeded seed + i (reproducible, not N copies of one tensor).
      for (const auto& job : live) {
        const ProveRequest& req = job->request;
        for (size_t i = 0; i < InferencesOf(req); ++i) {
          const auto first = req.input.begin() + static_cast<ptrdiff_t>(i * per);
          inputs.push_back(req.input.empty()
                               ? QuantizeTensor(SyntheticInput(*model, req.seed + i), model->quant)
                               : Tensor<int64_t>(model->input_shape,
                                                 {first, first + static_cast<ptrdiff_t>(per)}));
        }
      }
    }
    counters_->stage_witness->Record(SecondsBetween(witness_start, SteadyClock::now()));

    set_stage(WireStage::kProve);
    const auto prove_start = SteadyClock::now();
    StatusOr<PlanProof> proof = [&] {
      obs::Span span("serve.prove");
      return ProvePlan(compiled, inputs, &cancel, [&](size_t done, size_t) {
        lead.shards_done.store(static_cast<uint32_t>(done), std::memory_order_relaxed);
      });
    }();
    const double prove_seconds = SecondsBetween(prove_start, SteadyClock::now());
    counters_->stage_prove->Record(prove_seconds);
    // Plan-labelled series beside the aggregate, so sharding's scaling and
    // batching's amortization are visible per N (e.g. ...prove.shards4).
    for (const auto& [label, n] : {std::pair<const char*, size_t>{"shards", plan->shards},
                                   {"batch", plan->batch}}) {
      if (n <= 1) continue;
      obs::MetricsRegistry::Global()
          .histogram("serve.stage_seconds.prove." + std::string(label) + std::to_string(n),
                     kStageSecondsBuckets)
          .Record(prove_seconds);
    }
    if (!proof.ok()) {
      for (const auto& job : live) fail_status(*job, proof.status(), WireStage::kProve);
      return;
    }

    if (!options_.report_dir.empty()) {
      obs::Json report = BuildRunReport(compiled, *proof).ToJson();
      if (live.size() > 1) report.Set("coalesced", static_cast<uint64_t>(live.size()));
      // Report I/O must never fail a proved job.
      std::ofstream out(options_.report_dir + "/job_" + std::to_string(lead.id) + ".json");
      if (out) out << report.DumpPretty() << "\n";
    }

    // Every member gets the shared artifact and the whole statement (both
    // are needed to verify), plus the outputs of its own inferences.
    set_stage(WireStage::kRespond);
    const auto finished = SteadyClock::now();
    const std::vector<uint8_t> artifact = EncodePlanProof(proof->artifact);
    size_t next = 0;
    for (const auto& job : live) {
      ProveResponse& resp = job->response;
      resp.proof = artifact;
      resp.instance = proof->instance;
      for (const size_t end = next + InferencesOf(job->request); next < end; ++next) {
        const std::vector<int64_t> out = proof->outputs_q[next].ToVector();
        resp.output.insert(resp.output.end(), out.begin(), out.end());
      }
      resp.queue_micros = MicrosBetween(job->enqueued, started);
      resp.prove_micros = MicrosBetween(started, finished);
      resp.cache_hit = cache_hit ? 1 : 0;
      resp.shards = static_cast<uint32_t>(plan->shards);
      resp.batch = static_cast<uint32_t>(plan->batch);
      job->ok = true;
      counters_->jobs_completed.Inc();
      counters_->job_seconds->Record(SecondsBetween(job->enqueued, finished));
    }
  };

  {
    std::optional<obs::TracerScope> scope;
    if (tracer) scope.emplace(&*tracer);
    run();
  }
  for (const auto& job : live) answer(*job);
}

void ZkmlServer::WatchdogLoop() {
  const auto period = std::chrono::milliseconds(std::max(1, options_.watchdog_period_ms));
  const auto grace = std::chrono::milliseconds(options_.wedge_grace_ms);
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(period);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      const auto now = SteadyClock::now();
      for (auto& job : running_) {
        // Past-deadline jobs stop on their own at the next prover checkpoint;
        // the watchdog only steps in when one overstays the grace window
        // (wedged between checkpoints, or the deadline machinery failed).
        if (!job->reaped.load(std::memory_order_relaxed) && now >= job->deadline_tp + grace) {
          job->reaped.store(true, std::memory_order_relaxed);
          job->cancel->Cancel();
          counters_->watchdog_reaped.Inc();
        }
      }
    }
    PublishMetrics();
    SampleRates();
  }
}

}  // namespace serve
}  // namespace zkml
