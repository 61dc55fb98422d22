// zkml_serve: a long-lived proving daemon hardened for failure. One acceptor
// thread, one handler thread per connection, a bounded job queue feeding N
// prover workers, and a watchdog. The robustness contract:
//
//   - every byte off the socket is adversarial: frames are validated
//     (magic/version/CRC/size cap) and every rejection is an explicit error
//     frame naming the pipeline stage that refused it — the daemon never
//     aborts on client input;
//   - per-job deadlines: the job's CancelToken deadline covers queue wait +
//     compile + prove; the prover polls it between rounds, so an expired job
//     stops within one round and the client gets DEADLINE_EXCEEDED;
//   - backpressure: a full queue sheds the request immediately with
//     OVERLOADED (never a silent timeout), and in-flight work is unaffected;
//   - slow clients: reads and writes carry millisecond budgets; a peer that
//     trickles bytes (slowloris) or stops draining its receive buffer is
//     disconnected, not allowed to pin a thread;
//   - watchdog: jobs running past deadline + grace are cancelled and counted
//     as reaped, so a wedged job cannot leak a worker;
//   - graceful drain: RequestDrain() stops admission (SHUTTING_DOWN), lets
//     queued + running jobs finish (or cancels them after drain_timeout_ms),
//     flushes per-job run reports and serve.* metrics, then Stop() joins
//     every thread. SIGTERM in the zkml_serve binary maps to exactly this.
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/cancel.h"
#include "src/base/net.h"
#include "src/base/status.h"
#include "src/obs/event_log.h"
#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/obs/windows.h"
#include "src/serve/admin.h"
#include "src/serve/cache.h"
#include "src/serve/wire.h"
#include "src/zkml/zkml.h"

namespace zkml {
namespace serve {

struct ServeOptions {
  uint16_t port = 0;         // 0 = ephemeral (read back from ZkmlServer::port())
  int num_workers = 2;       // concurrent provers
  size_t queue_capacity = 8; // admission bound; beyond it requests shed OVERLOADED

  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  int io_timeout_ms = 5000;        // budget for one full header/payload/response
  int poll_interval_ms = 200;      // idle-connection poll granularity
  uint32_t default_deadline_ms = 60000;  // applied when the client sends 0
  uint32_t max_deadline_ms = 600000;     // client-requested deadlines are clamped
  uint32_t wedge_grace_ms = 2000;  // past-deadline slack before the watchdog reaps
  int watchdog_period_ms = 50;
  int drain_timeout_ms = 30000;    // drain budget before in-flight jobs are cancelled
  size_t cache_capacity = 8;       // compiled models kept hot
  size_t max_connections = 64;

  // Request coalescing: a worker that dequeues a single-inference job may
  // also claim up to coalesce_max - 1 compatible queued jobs (same model,
  // same backend, unsharded, deadline no earlier than its own) and prove them
  // all in ONE batched circuit; each client gets the shared zkml.proof/v2
  // artifact (plan {1,N}) plus its own output. 1 disables (the
  // default — coalescing trades per-job latency for aggregate throughput, an
  // operator decision).
  size_t coalesce_max = 1;

  // Optimizer envelope used when compiling models (mirrors the CLI).
  int optimizer_min_columns = 8;
  int optimizer_max_columns = 32;
  int optimizer_max_k = 15;

  std::string report_dir;  // per-job zkml.run_report/v1 files (empty = off)

  // --- Ops plane (src/serve/admin.h). All off by default. ---
  int admin_port = -1;             // -1 = no admin listener, 0 = ephemeral port
  std::string event_log_path;      // JSONL operational events (empty = off)
  size_t event_log_max_bytes = 8u << 20;  // rotation threshold
  uint32_t trace_sample_every = 0; // sample every Nth job into /tracez (0 = off)
  size_t trace_ring_capacity = 16; // sampled traces kept for /tracez
};

// Aggregate daemon counters (also published as serve.* metrics).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // over max_connections
  uint64_t protocol_errors = 0;       // bad magic/version/CRC/size/payload
  uint64_t slow_clients_closed = 0;   // read/write budget exhausted
  uint64_t jobs_accepted = 0;
  uint64_t jobs_completed = 0;
  uint64_t jobs_shed_overload = 0;
  uint64_t jobs_deadline_exceeded = 0;
  uint64_t jobs_cancelled = 0;        // drain or watchdog cancellation
  uint64_t jobs_rejected_malformed = 0;
  uint64_t jobs_failed_internal = 0;
  uint64_t watchdog_reaped = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  size_t queue_depth = 0;
  size_t running_jobs = 0;
  size_t open_connections = 0;
};

class ZkmlServer {
 public:
  explicit ZkmlServer(const ServeOptions& options);
  ~ZkmlServer();

  ZkmlServer(const ZkmlServer&) = delete;
  ZkmlServer& operator=(const ZkmlServer&) = delete;

  // Binds the listen socket and spawns acceptor, workers, and watchdog.
  Status Start();

  // Stops admission: new connections are refused, new requests on live
  // connections answer SHUTTING_DOWN, queued and running jobs keep going.
  // Idempotent, callable from any thread (and from a signal-handler-fed
  // flag, not the handler itself — it takes locks).
  void RequestDrain();

  // Full graceful shutdown: RequestDrain, wait up to drain_timeout_ms for
  // queued + running jobs to finish (cancelling whatever remains), join all
  // threads, flush reports. Returns once the process holds no serve threads.
  void Stop();

  uint16_t port() const { return listener_.port(); }
  // 0 when the admin listener is disabled.
  uint16_t admin_port() const { return admin_ ? admin_->port() : 0; }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  ServerStats stats() const;

  // Live state document (schema "zkml.statusz/v1"): uptime, queue depth,
  // per-worker job id/stage/elapsed, cache and rejection counters, windowed
  // rates, latency quantiles. Served at /statusz; also directly callable.
  obs::Json StatusJson() const;

  // The Prometheus text-exposition page served at /metrics.
  std::string MetricsText() const;

  const obs::TraceRing& trace_ring() const { return trace_ring_; }

 private:
  struct Job;
  struct Connection;

  void AcceptLoop();
  void HandleConnection(std::shared_ptr<Connection> conn);
  void WorkerLoop(int worker_index);
  void WatchdogLoop();

  // The one executor (the worker body): proves a group of jobs — one job,
  // or the jobs coalescing claimed with it — through a single resolved plan
  // {shards, batch}, and answers every member: fills its response or error,
  // drops it from running_ and fulfils its promise. A member that fails
  // before the shared proof (expired in the queue, malformed input) is
  // answered at once, not when the group finishes.
  void ExecuteGroup(const std::vector<std::shared_ptr<Job>>& group);

  // Queue admission; null with *err filled (OVERLOADED / SHUTTING_DOWN) when
  // the job was not accepted.
  std::shared_ptr<Job> AdmitJob(ProveRequest request, uint64_t request_id, WireError* err);

  // False when the client could not be written to (it is then disconnected).
  bool SendFrame(Connection& conn, FrameType type, uint64_t request_id,
                 const std::vector<uint8_t>& payload);
  bool SendError(Connection& conn, uint64_t request_id, const WireError& err);

  void PublishMetrics();

  // Ops plane: admin route registration, rate sampling, event emission.
  Status StartAdmin();
  void SampleRates() const;
  void LogEvent(const std::string& event, obs::Json fields) const;

  const ServeOptions options_;
  ListenSocket listener_;
  CompiledModelCache cache_;

  std::unique_ptr<AdminServer> admin_;
  std::unique_ptr<obs::EventLog> event_log_;
  obs::TraceRing trace_ring_;
  mutable obs::RateWindows rates_;  // sampled by the watchdog and on scrape
  std::chrono::steady_clock::time_point started_at_{};

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::thread watchdog_;

  // conn_threads_[i] handles conn_refs_[i]; finished pairs are reaped from
  // the accept loop so a long-lived daemon does not accumulate dead threads.
  std::mutex conns_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::shared_ptr<Connection>> conn_refs_;
  std::atomic<size_t> open_connections_{0};

  // Bounded job queue + registry of running jobs (for the watchdog).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  std::vector<std::shared_ptr<Job>> running_;

  std::atomic<uint64_t> next_job_id_{1};

  struct Counters;
  std::unique_ptr<Counters> counters_;
};

}  // namespace serve
}  // namespace zkml

#endif  // SRC_SERVE_SERVER_H_
