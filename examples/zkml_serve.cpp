// The zkml proving daemon. Listens on 127.0.0.1, speaks the length-prefixed
// wire protocol from src/serve/wire.h, and survives hostile clients: corrupt
// frames, slowloris writers, queue floods, and mid-proof disconnects are all
// answered (or shed) without taking the process down.
//
//   zkml_serve [--port=N] [--workers=N] [--queue=N] [--cache=N] [--coalesce=N]
//              [--deadline-ms=N] [--max-deadline-ms=N] [--io-timeout-ms=N]
//              [--drain-timeout-ms=N] [--max-frame-bytes=N]
//              [--report-dir=<dir>] [--metrics=<file>] [--port-file=<file>]
//              [--admin-port=N] [--admin-port-file=<file>]
//              [--event-log=<file>] [--trace-sample-n=N] [--trace-ring=N]
//
// Prints "zkml_serve listening on 127.0.0.1:<port>" once ready (and writes
// the bare port number to --port-file for scripts). --admin-port starts the
// HTTP ops plane (/metrics /healthz /statusz /tracez) on its own port
// (0 = ephemeral, written to --admin-port-file); --event-log appends JSONL
// operational events; --trace-sample-n=N traces every Nth job into /tracez.
// SIGTERM or SIGINT starts a graceful drain: admission stops (new requests
// answer SHUTTING_DOWN), in-flight jobs finish or are cancelled after
// --drain-timeout-ms, metrics flush, and the process exits 0. A second
// signal exits immediately.
//
// Exit codes: 0 clean drain, 1 usage/startup failure.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/obs/metrics.h"
#include "src/serve/server.h"

namespace {

volatile std::sig_atomic_t g_signal_count = 0;

void OnSignal(int) {
  // A plain read then store: C++20 deprecates ++ on a volatile, and both
  // accesses stay async-signal-safe on a sig_atomic_t.
  const std::sig_atomic_t seen = g_signal_count;
  g_signal_count = seen + 1;
  if (seen > 0) {
    std::_Exit(1);  // second signal: the operator wants out now
  }
}

bool ParseUintFlag(const std::string& arg, const char* name, uint64_t* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoull(arg.c_str() + prefix.size(), &end, 10);
  return end != nullptr && *end == '\0';
}

int Usage() {
  std::fprintf(stderr,
               "usage: zkml_serve [--port=N] [--workers=N] [--queue=N] [--cache=N] [--coalesce=N]\n"
               "                  [--deadline-ms=N] [--max-deadline-ms=N] [--io-timeout-ms=N]\n"
               "                  [--drain-timeout-ms=N] [--max-frame-bytes=N]\n"
               "                  [--report-dir=<dir>] [--metrics=<file>] [--port-file=<file>]\n"
               "                  [--admin-port=N] [--admin-port-file=<file>]\n"
               "                  [--event-log=<file>] [--trace-sample-n=N] [--trace-ring=N]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zkml;
  serve::ServeOptions options;
  std::string metrics_path, port_file, admin_port_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    uint64_t v = 0;
    if (ParseUintFlag(arg, "port", &v)) {
      options.port = static_cast<uint16_t>(v);
    } else if (ParseUintFlag(arg, "admin-port", &v)) {
      options.admin_port = static_cast<int>(v);
    } else if (ParseUintFlag(arg, "trace-sample-n", &v)) {
      options.trace_sample_every = static_cast<uint32_t>(v);
    } else if (ParseUintFlag(arg, "trace-ring", &v)) {
      options.trace_ring_capacity = v;
    } else if (arg.rfind("--event-log=", 0) == 0) {
      options.event_log_path = arg.substr(12);
    } else if (arg.rfind("--admin-port-file=", 0) == 0) {
      admin_port_file = arg.substr(18);
    } else if (ParseUintFlag(arg, "workers", &v)) {
      options.num_workers = static_cast<int>(v);
    } else if (ParseUintFlag(arg, "queue", &v)) {
      options.queue_capacity = v;
    } else if (ParseUintFlag(arg, "cache", &v)) {
      options.cache_capacity = v;
    } else if (ParseUintFlag(arg, "coalesce", &v)) {
      options.coalesce_max = v;
    } else if (ParseUintFlag(arg, "deadline-ms", &v)) {
      options.default_deadline_ms = static_cast<uint32_t>(v);
    } else if (ParseUintFlag(arg, "max-deadline-ms", &v)) {
      options.max_deadline_ms = static_cast<uint32_t>(v);
    } else if (ParseUintFlag(arg, "io-timeout-ms", &v)) {
      options.io_timeout_ms = static_cast<int>(v);
    } else if (ParseUintFlag(arg, "drain-timeout-ms", &v)) {
      options.drain_timeout_ms = static_cast<int>(v);
    } else if (ParseUintFlag(arg, "max-frame-bytes", &v)) {
      options.max_frame_bytes = static_cast<uint32_t>(v);
    } else if (ParseUintFlag(arg, "opt-min-cols", &v)) {
      options.optimizer_min_columns = static_cast<int>(v);
    } else if (ParseUintFlag(arg, "opt-max-cols", &v)) {
      options.optimizer_max_columns = static_cast<int>(v);
    } else if (ParseUintFlag(arg, "opt-max-k", &v)) {
      options.optimizer_max_k = static_cast<int>(v);
    } else if (arg.rfind("--report-dir=", 0) == 0) {
      options.report_dir = arg.substr(13);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg.rfind("--port-file=", 0) == 0) {
      port_file = arg.substr(12);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return Usage();
    }
  }

  serve::ZkmlServer server(options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "cannot start: %s\n", s.ToString().c_str());
    return 1;
  }

  struct sigaction sa = {};
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  std::printf("zkml_serve listening on 127.0.0.1:%u (workers=%d queue=%zu cache=%zu)\n",
              server.port(), options.num_workers, options.queue_capacity,
              options.cache_capacity);
  if (server.admin_port() != 0) {
    std::printf("zkml_serve admin plane on http://127.0.0.1:%u "
                "(/metrics /healthz /statusz /tracez)\n",
                server.admin_port());
  }
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
  }
  if (!admin_port_file.empty()) {
    std::ofstream out(admin_port_file);
    out << server.admin_port() << "\n";
  }

  while (g_signal_count == 0) {
    // The signal handler only bumps a flag (Stop takes locks, so it cannot
    // run inside the handler); this loop is the bridge.
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }

  std::printf("zkml_serve draining...\n");
  std::fflush(stdout);
  server.Stop();
  const serve::ServerStats stats = server.stats();
  std::printf("zkml_serve drained clean: %llu jobs completed, %llu shed, %llu deadline, "
              "%llu cancelled, %llu protocol errors, %llu reaped\n",
              static_cast<unsigned long long>(stats.jobs_completed),
              static_cast<unsigned long long>(stats.jobs_shed_overload),
              static_cast<unsigned long long>(stats.jobs_deadline_exceeded),
              static_cast<unsigned long long>(stats.jobs_cancelled),
              static_cast<unsigned long long>(stats.protocol_errors),
              static_cast<unsigned long long>(stats.watchdog_reaped));
  if (!metrics_path.empty()) {
    if (Status s = obs::MetricsRegistry::Global().WriteFile(metrics_path); !s.ok()) {
      std::fprintf(stderr, "cannot write metrics %s: %s\n", metrics_path.c_str(),
                   s.ToString().c_str());
    }
  }
  return 0;
}
