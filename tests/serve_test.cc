// ZkmlServer behaviour tests: request/response round-trips, explicit
// stage-attributed rejections, deadline enforcement with cooperative
// cancellation, queue backpressure (OVERLOADED, not timeouts), watchdog
// reaping, and graceful drain. Servers listen on 127.0.0.1 ephemeral ports.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/layers/quant_executor.h"
#include "src/model/serialize.h"
#include "src/model/zoo.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/zkml/batched.h"
#include "src/zkml/sharded.h"
#include "src/zkml/zkml.h"

namespace zkml {
namespace serve {
namespace {

constexpr int kIoMs = 5000;       // client-side timeout for proof waits
constexpr int kProveWaitMs = 120000;

ServeOptions FastServe() {
  ServeOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;
  options.poll_interval_ms = 20;
  options.io_timeout_ms = 2000;
  options.watchdog_period_ms = 10;
  options.drain_timeout_ms = 60000;
  // Match the e2e tests' fast optimizer envelope so compiles stay ~seconds.
  options.optimizer_min_columns = 10;
  options.optimizer_max_columns = 26;
  options.optimizer_max_k = 14;
  return options;
}

const std::string& MnistText() {
  static const std::string* text = new std::string(SerializeModel(MakeMnistCnn()));
  return *text;
}

// Samples in the serve.stage_seconds.admission histogram (one per job that
// reached a worker). The registry is process-global, so tests take deltas.
uint64_t AdmissionCount(const ZkmlServer& server) {
  return server.StatusJson().Find("latency_seconds")->Find("admission")->Find("count")->AsUint();
}

ZkmlClient MustConnect(const ZkmlServer& server) {
  StatusOr<ZkmlClient> client = ZkmlClient::Connect("127.0.0.1", server.port(), kIoMs);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

TEST(ServeTest, PingProveRoundTripAndCacheReuse) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);
  ASSERT_TRUE(client.Ping(99, kIoMs).ok());

  const Model model = MakeMnistCnn();
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 41), model.quant);
  ProveRequest req;
  req.model_text = MnistText();
  req.seed = 41;
  req.input = input.ToVector();

  StatusOr<ZkmlClient::ProveOutcome> first = client.Prove(req, 1, kProveWaitMs);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok) << first->error.ToString();
  EXPECT_EQ(first->response.cache_hit, 0);
  EXPECT_FALSE(first->response.proof.empty());
  // The daemon's claimed output matches the local quantized reference run.
  EXPECT_EQ(first->response.output, RunQuantized(model, input).ToVector());

  // Same model again on the same connection: compiled-circuit cache hit.
  StatusOr<ZkmlClient::ProveOutcome> second = client.Prove(req, 2, kProveWaitMs);
  ASSERT_TRUE(second.ok() && second->ok);
  EXPECT_EQ(second->response.cache_hit, 1);

  // The proof verifies against an independently compiled verifying key: the
  // server really proved this statement, it did not just echo bytes.
  ZkmlOptions zo;
  zo.backend = PcsKind::kKzg;
  zo.optimizer.min_columns = 10;
  zo.optimizer.max_columns = 26;
  zo.optimizer.max_k = 14;
  const CompiledModel compiled = CompileModel(model, zo);
  EXPECT_TRUE(
      Verify(compiled.pk.vk, *compiled.pcs, first->response.instance, first->response.proof));

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  server.Stop();
}

TEST(ServeTest, SemanticRejectionsAreStageAttributedAndKeepTheConnection) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);

  // Unparseable model text → MALFORMED_MODEL attributed to model-parse.
  ProveRequest bad_model;
  bad_model.model_text = "definitely not a model";
  StatusOr<ZkmlClient::ProveOutcome> r1 = client.Prove(bad_model, 1, kIoMs);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_FALSE(r1->ok);
  EXPECT_EQ(r1->error.code, WireErrorCode::kMalformedModel);
  EXPECT_EQ(r1->error.stage, WireStage::kModelParse);

  // Wrong input volume → INPUT_MISMATCH attributed to witness.
  ProveRequest bad_input;
  bad_input.model_text = MnistText();
  bad_input.input = {1, 2, 3};
  StatusOr<ZkmlClient::ProveOutcome> r2 = client.Prove(bad_input, 2, kProveWaitMs);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_FALSE(r2->ok);
  EXPECT_EQ(r2->error.code, WireErrorCode::kInputMismatch);
  EXPECT_EQ(r2->error.stage, WireStage::kWitness);

  // Semantic rejections do not cost the connection: it still serves pings.
  EXPECT_TRUE(client.Ping(3, kIoMs).ok());
  EXPECT_EQ(server.stats().jobs_rejected_malformed, 2u);
  server.Stop();
}

TEST(ServeTest, CorruptFramesAnsweredThenConnectionClosed) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());

  {
    // CRC corruption: explicit BAD_CRC error, then the server hangs up (a
    // byte stream with a corrupt frame cannot be resynchronized).
    ZkmlClient client = MustConnect(server);
    std::vector<uint8_t> frame;
    EncodeFrame(&frame, FrameType::kPing, 7, {});
    frame[20] ^= 0xff;
    ASSERT_TRUE(client.socket().WriteFull(frame.data(), frame.size(), kIoMs).ok());
    StatusOr<std::pair<FrameHeader, std::vector<uint8_t>>> reply = client.ReadFrame(kIoMs);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->first.type, FrameType::kError);
    StatusOr<WireError> err = DecodeWireError(reply->second);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, WireErrorCode::kBadCrc);
    EXPECT_EQ(err->stage, WireStage::kFramePayload);
    // Connection is now closed server-side.
    EXPECT_FALSE(client.ReadFrame(1000).ok());
  }
  {
    // Oversize length prefix: rejected before any allocation.
    ZkmlClient client = MustConnect(server);
    std::vector<uint8_t> frame;
    EncodeFrame(&frame, FrameType::kProveRequest, 8, {1, 2, 3});
    const uint32_t huge = 0x7fffffffu;
    for (int i = 0; i < 4; ++i) frame[16 + i] = static_cast<uint8_t>(huge >> (8 * i));
    ASSERT_TRUE(client.socket().WriteFull(frame.data(), frame.size(), kIoMs).ok());
    StatusOr<std::pair<FrameHeader, std::vector<uint8_t>>> reply = client.ReadFrame(kIoMs);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    StatusOr<WireError> err = DecodeWireError(reply->second);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, WireErrorCode::kFrameTooLarge);
    EXPECT_EQ(err->stage, WireStage::kFrameHeader);
  }
  {
    // A frame from an older protocol version: the daemon speaks only
    // kWireVersion, so BAD_VERSION, then the server hangs up.
    ZkmlClient client = MustConnect(server);
    std::vector<uint8_t> frame;
    EncodeFrame(&frame, FrameType::kProveRequest, 9, EncodeProveRequest(ProveRequest{}));
    frame[4] = 1;
    ASSERT_TRUE(client.socket().WriteFull(frame.data(), frame.size(), kIoMs).ok());
    StatusOr<std::pair<FrameHeader, std::vector<uint8_t>>> reply = client.ReadFrame(kIoMs);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    StatusOr<WireError> err = DecodeWireError(reply->second);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, WireErrorCode::kBadVersion);
    EXPECT_EQ(err->stage, WireStage::kFrameHeader);
    EXPECT_FALSE(client.ReadFrame(1000).ok());
  }
  EXPECT_GE(server.stats().protocol_errors, 3u);
  server.Stop();
}

TEST(ServeTest, DeadlineExceededWhileConcurrentJobCompletes) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());

  // Warm the compile cache so the tight deadline lands inside proving, where
  // the prover's round-boundary checkpoints must catch it.
  {
    ZkmlClient warm = MustConnect(server);
    ProveRequest req;
    req.model_text = MnistText();
    req.seed = 50;
    StatusOr<ZkmlClient::ProveOutcome> r = warm.Prove(req, 1, kProveWaitMs);
    ASSERT_TRUE(r.ok() && r->ok) << (r.ok() ? r->error.ToString() : r.status().ToString());
  }

  StatusOr<ZkmlClient::ProveOutcome> slow_result = InternalError("unset");
  StatusOr<ZkmlClient::ProveOutcome> fast_result = InternalError("unset");
  std::thread healthy([&] {
    ZkmlClient c = MustConnect(server);
    ProveRequest req;
    req.model_text = MnistText();
    req.seed = 51;
    slow_result = c.Prove(req, 2, kProveWaitMs);
  });
  std::thread doomed([&] {
    ZkmlClient c = MustConnect(server);
    ProveRequest req;
    req.model_text = MnistText();
    req.seed = 52;
    req.deadline_ms = 30;  // far below one proof's duration
    fast_result = c.Prove(req, 3, kProveWaitMs);
  });
  healthy.join();
  doomed.join();

  ASSERT_TRUE(fast_result.ok()) << fast_result.status().ToString();
  ASSERT_FALSE(fast_result->ok);
  EXPECT_EQ(fast_result->error.code, WireErrorCode::kDeadlineExceeded);
  EXPECT_EQ(fast_result->error.stage, WireStage::kProve);
  // The Status message names the checkpoint that noticed the expiry.
  EXPECT_NE(fast_result->error.message.find("deadline exceeded at"), std::string::npos)
      << fast_result->error.message;

  // The concurrent healthy job was unaffected by its neighbour's deadline.
  ASSERT_TRUE(slow_result.ok()) << slow_result.status().ToString();
  EXPECT_TRUE(slow_result->ok) << slow_result->error.ToString();
  EXPECT_GE(server.stats().jobs_deadline_exceeded, 1u);
  server.Stop();
}

TEST(ServeTest, OverloadShedsExplicitlyWhileInFlightJobsComplete) {
  ServeOptions options = FastServe();
  options.num_workers = 1;
  options.queue_capacity = 1;
  ZkmlServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Warm the cache so every subsequent prove is pure prover work.
  {
    ZkmlClient warm = MustConnect(server);
    ProveRequest req;
    req.model_text = MnistText();
    req.seed = 60;
    ASSERT_TRUE(warm.Prove(req, 1, kProveWaitMs).ok());
  }

  // One job occupies the single worker, one fills the queue; further
  // arrivals must shed immediately with OVERLOADED while the first two run
  // to completion.
  std::vector<StatusOr<ZkmlClient::ProveOutcome>> results(5, InternalError("unset"));
  std::vector<std::thread> clients;
  for (int i = 0; i < 5; ++i) {
    clients.emplace_back([&, i] {
      ZkmlClient c = MustConnect(server);
      ProveRequest req;
      req.model_text = MnistText();
      req.seed = 61 + static_cast<uint64_t>(i);
      // Stagger so the first request reaches the worker before the flood.
      std::this_thread::sleep_for(std::chrono::milliseconds(20 * i));
      results[static_cast<size_t>(i)] = c.Prove(req, static_cast<uint64_t>(i) + 10, kProveWaitMs);
    });
  }
  for (auto& t : clients) t.join();

  uint64_t ok = 0, overloaded = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->ok) {
      ++ok;
    } else {
      EXPECT_EQ(r->error.code, WireErrorCode::kOverloaded) << r->error.ToString();
      EXPECT_EQ(r->error.stage, WireStage::kAdmission);
      ++overloaded;
    }
  }
  // At least one must shed (5 near-simultaneous arrivals into worker=1 +
  // queue=1) and the admitted ones must all complete.
  EXPECT_GE(overloaded, 1u);
  EXPECT_GE(ok, 2u);
  EXPECT_EQ(ok + overloaded, 5u);
  EXPECT_EQ(server.stats().jobs_shed_overload, overloaded);
  server.Stop();
}

TEST(ServeTest, WatchdogReapsJobWedgedInUncancellableWork) {
  ServeOptions options = FastServe();
  options.wedge_grace_ms = 100;
  ZkmlServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);

  // A cold model makes compilation the wedge: it takes seconds and has no
  // cancellation checkpoints, so the 50ms deadline plus 100ms grace elapse
  // while the job cannot yield. The watchdog must cancel the token; the job
  // reports CANCELLED ("reaped") at its next checkpoint instead of running
  // the proof after its client has long given up.
  ProveRequest req;
  req.model_text = MnistText();
  req.seed = 70;
  req.deadline_ms = 50;
  StatusOr<ZkmlClient::ProveOutcome> r = client.Prove(req, 1, kProveWaitMs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->ok);
  EXPECT_EQ(r->error.code, WireErrorCode::kCancelled) << r->error.ToString();
  EXPECT_NE(r->error.message.find("reaped by watchdog"), std::string::npos) << r->error.message;
  EXPECT_EQ(server.stats().watchdog_reaped, 1u);
  server.Stop();
}

TEST(ServeTest, DrainRejectsNewWorkThenStopsClean) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);
  ASSERT_TRUE(client.Ping(1, kIoMs).ok());

  server.RequestDrain();
  EXPECT_TRUE(server.draining());

  // New requests on the live connection get the explicit drain response.
  ProveRequest req;
  req.model_text = MnistText();
  StatusOr<ZkmlClient::ProveOutcome> r = client.Prove(req, 2, kIoMs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->ok);
  EXPECT_EQ(r->error.code, WireErrorCode::kShuttingDown);
  EXPECT_EQ(r->error.stage, WireStage::kAdmission);

  // Liveness probes still answer during the drain window.
  EXPECT_TRUE(client.Ping(3, kIoMs).ok());

  server.Stop();  // joins every thread; reaching the next line is the test
  EXPECT_EQ(server.stats().jobs_completed, 0u);
}

// --- Sharded proving over the wire. ---

TEST(ServeWireTest, ProvePayloadsRoundTripShardCount) {
  ProveRequest req;
  req.model_text = "m";
  req.backend = 1;
  req.deadline_ms = 250;
  req.seed = 7;
  req.input = {1, -2, 3};
  req.shards = 4;
  const StatusOr<ProveRequest> rt = DecodeProveRequest(EncodeProveRequest(req));
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_EQ(rt->model_text, "m");
  EXPECT_EQ(rt->backend, 1);
  EXPECT_EQ(rt->deadline_ms, 250u);
  EXPECT_EQ(rt->seed, 7u);
  EXPECT_EQ(rt->input, req.input);
  EXPECT_EQ(rt->shards, 4u);
  EXPECT_EQ(rt->batch, 0u);

  ProveResponse resp;
  resp.proof = {0xAA, 0xBB};
  resp.output = {5};
  resp.prove_micros = 123;
  resp.shards = 2;
  const StatusOr<ProveResponse> rr = DecodeProveResponse(EncodeProveResponse(resp));
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  EXPECT_EQ(rr->proof, resp.proof);
  EXPECT_EQ(rr->output, resp.output);
  EXPECT_EQ(rr->prove_micros, 123u);
  EXPECT_EQ(rr->shards, 2u);
}

TEST(ServeTest, ShardedProveReturnsVerifiableArtifact) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);

  const Model model = MakeMnistCnn();
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 51), model.quant);
  ProveRequest req;
  req.model_text = MnistText();
  req.seed = 51;
  req.input = input.ToVector();
  req.shards = 2;

  StatusOr<ZkmlClient::ProveOutcome> first = client.Prove(req, 1, kProveWaitMs);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok) << first->error.ToString();
  EXPECT_EQ(first->response.shards, 2u);
  EXPECT_TRUE(LooksLikeShardedProof(first->response.proof));
  EXPECT_EQ(first->response.output, RunQuantized(model, input).ToVector());

  // The artifact verifies against independently compiled shard keys, with the
  // aggregated (single-pairing) opening check under KZG.
  ZkmlOptions zo;
  zo.backend = PcsKind::kKzg;
  zo.optimizer.min_columns = 10;
  zo.optimizer.max_columns = 26;
  zo.optimizer.max_k = 14;
  const StatusOr<CompiledShardedModel> compiled = CompileSharded(model, 2, zo);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const VerifyResult r =
      VerifySharded(*compiled, first->response.instance, first->response.proof);
  EXPECT_TRUE(r.ok()) << r.ToString();

  // Re-proving the same sharded request hits the per-shard compile cache.
  StatusOr<ZkmlClient::ProveOutcome> second = client.Prove(req, 2, kProveWaitMs);
  ASSERT_TRUE(second.ok() && second->ok);
  EXPECT_EQ(second->response.cache_hit, 1);
  EXPECT_EQ(second->response.shards, 2u);

  // A single-circuit request on the same connection still answers shards=1.
  req.shards = 0;
  StatusOr<ZkmlClient::ProveOutcome> single = client.Prove(req, 3, kProveWaitMs);
  ASSERT_TRUE(single.ok() && single->ok);
  EXPECT_EQ(single->response.shards, 1u);
  EXPECT_FALSE(LooksLikeShardedProof(single->response.proof));
  server.Stop();
}

// --- Batched proving over the wire. ---

TEST(ServeWireTest, ProvePayloadsRoundTripBatchCount) {
  ProveRequest req;
  req.model_text = "m";
  req.seed = 7;
  req.batch = 3;
  const StatusOr<ProveRequest> rt = DecodeProveRequest(EncodeProveRequest(req));
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_EQ(rt->batch, 3u);
  EXPECT_EQ(rt->shards, 0u);

  // Both trailing counts travel together and stay independent.
  req.shards = 2;
  const StatusOr<ProveRequest> both = DecodeProveRequest(EncodeProveRequest(req));
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  EXPECT_EQ(both->shards, 2u);
  EXPECT_EQ(both->batch, 3u);

  ProveResponse resp;
  resp.proof = {0xAA};
  resp.batch = 4;
  const StatusOr<ProveResponse> rr = DecodeProveResponse(EncodeProveResponse(resp));
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  EXPECT_EQ(rr->batch, 4u);
}

TEST(ServeTest, BatchedProveReturnsVerifiableArtifact) {
  ZkmlServer server(FastServe());
  ASSERT_TRUE(server.Start().ok());
  ZkmlClient client = MustConnect(server);

  const Model model = MakeMnistCnn();
  ProveRequest req;
  req.model_text = MnistText();
  req.seed = 81;
  req.batch = 2;

  StatusOr<ZkmlClient::ProveOutcome> r = client.Prove(req, 1, kProveWaitMs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->ok) << r->error.ToString();
  EXPECT_EQ(r->response.batch, 2u);
  EXPECT_TRUE(LooksLikeBatchedProof(r->response.proof));

  // The output is the concatenation of both inferences' reference runs
  // (synthetic inputs from seed and seed+1).
  std::vector<int64_t> expected;
  for (uint64_t i = 0; i < 2; ++i) {
    const Tensor<int64_t> input =
        QuantizeTensor(SyntheticInput(model, req.seed + i), model.quant);
    const std::vector<int64_t> out = RunQuantized(model, input).ToVector();
    expected.insert(expected.end(), out.begin(), out.end());
  }
  EXPECT_EQ(r->response.output, expected);

  // The artifact verifies against an independently compiled batched circuit.
  ZkmlOptions zo;
  zo.backend = PcsKind::kKzg;
  zo.optimizer.min_columns = 10;
  zo.optimizer.max_columns = 26;
  zo.optimizer.max_k = 14;
  const StatusOr<CompiledBatchedModel> compiled = CompileBatched(model, 2, zo);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const VerifyResult v =
      VerifyBatchedDetailed(*compiled, r->response.instance, r->response.proof);
  EXPECT_TRUE(v.ok()) << v.ToString();

  // Asking for sharded AND batched proving in one request is rejected.
  ProveRequest both = req;
  both.shards = 2;
  StatusOr<ZkmlClient::ProveOutcome> bad = client.Prove(both, 2, kProveWaitMs);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  ASSERT_FALSE(bad->ok);
  EXPECT_EQ(bad->error.code, WireErrorCode::kMalformedRequest);
  server.Stop();
}

TEST(ServeTest, CompatibleQueuedJobsCoalesceIntoOneBatchedProof) {
  ServeOptions options = FastServe();
  options.num_workers = 1;   // everything funnels through one worker
  options.coalesce_max = 4;  // it may claim up to 3 queued compatible jobs
  options.trace_sample_every = 1;
  ZkmlServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const uint64_t admissions_before = AdmissionCount(server);

  const Model model = MakeMnistCnn();

  // Occupy the single worker with a cold compile; the four jobs that arrive
  // meanwhile queue up and must be claimed as ONE group when it frees. The
  // fourth carries a malformed input: it fails alone and the group shrinks
  // to the three that remain.
  StatusOr<ZkmlClient::ProveOutcome> head_result = InternalError("unset");
  std::thread head([&] {
    ZkmlClient c = MustConnect(server);
    ProveRequest req;
    req.model_text = MnistText();
    req.seed = 90;
    head_result = c.Prove(req, 1, kProveWaitMs);
  });
  // Give the head job time to be claimed before the group arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  std::vector<StatusOr<ZkmlClient::ProveOutcome>> results(4, InternalError("unset"));
  std::vector<Tensor<int64_t>> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(
        QuantizeTensor(SyntheticInput(model, 91 + static_cast<uint64_t>(i)), model.quant));
  }
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      ZkmlClient c = MustConnect(server);
      ProveRequest req;
      req.model_text = MnistText();
      req.seed = 91 + static_cast<uint64_t>(i);
      req.input = i < 3 ? inputs[static_cast<size_t>(i)].ToVector() : std::vector<int64_t>{1, 2, 3};
      results[static_cast<size_t>(i)] = c.Prove(req, static_cast<uint64_t>(i) + 10, kProveWaitMs);
    });
  }
  head.join();
  for (auto& t : clients) t.join();
  ASSERT_TRUE(head_result.ok() && head_result->ok);

  // Every member of the group succeeded, shares the batched artifact, and
  // got its OWN inference's output (matching its local reference run).
  for (int i = 0; i < 3; ++i) {
    const auto& r = results[static_cast<size_t>(i)];
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->ok) << r->error.ToString();
    EXPECT_EQ(r->response.batch, 3u) << "job " << i << " was not coalesced";
    EXPECT_TRUE(LooksLikeBatchedProof(r->response.proof));
    EXPECT_EQ(r->response.output,
              RunQuantized(model, inputs[static_cast<size_t>(i)]).ToVector())
        << "job " << i << " got another member's output";
    EXPECT_EQ(r->response.proof, results[0]->response.proof)
        << "group members must share one artifact";
  }

  // The shared artifact verifies against an independent batched circuit.
  ZkmlOptions zo;
  zo.backend = PcsKind::kKzg;
  zo.optimizer.min_columns = 10;
  zo.optimizer.max_columns = 26;
  zo.optimizer.max_k = 14;
  const StatusOr<CompiledBatchedModel> compiled = CompileBatched(model, 3, zo);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const VerifyResult v = VerifyBatchedDetailed(*compiled, results[0]->response.instance,
                                               results[0]->response.proof);
  EXPECT_TRUE(v.ok()) << v.ToString();

  ASSERT_TRUE(results[3].ok()) << results[3].status().ToString();
  ASSERT_FALSE(results[3]->ok);
  EXPECT_EQ(results[3]->error.code, WireErrorCode::kInputMismatch);
  EXPECT_EQ(results[3]->error.stage, WireStage::kWitness);
  EXPECT_EQ(server.stats().jobs_completed, 4u);
  EXPECT_EQ(server.stats().jobs_rejected_malformed, 1u);
  // The group shrank, yet every job's queue wait was recorded exactly once.
  EXPECT_EQ(AdmissionCount(server) - admissions_before, 5u);

  // Coalesced members are sampled like any job: each lands in the trace ring
  // with its own request id and outcome.
  const std::vector<obs::Json> traces = server.trace_ring().Snapshot();
  for (uint64_t request_id = 10; request_id < 14; ++request_id) {
    const auto it = std::find_if(traces.begin(), traces.end(), [&](const obs::Json& t) {
      return t.Find("request_id")->AsUint() == request_id;
    });
    ASSERT_NE(it, traces.end()) << "no trace for request " << request_id;
    EXPECT_EQ(it->Find("outcome")->AsString(), request_id == 13 ? "INPUT_MISMATCH" : "ok");
  }
  server.Stop();
}

TEST(ServeTest, CoalescedMemberPastItsDeadlineFailsAloneWhileTheGroupProves) {
  ServeOptions options = FastServe();
  options.num_workers = 1;
  options.coalesce_max = 4;
  ZkmlServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the single worker with a cold compile while three compatible jobs
  // queue behind it. Job 1 queues first, so it leads the group the worker
  // claims next, and its 100ms budget runs out in the queue.
  const auto wait_until = [](const auto& done) {
    for (int ms = 0; ms < 10000 && !done(); ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  StatusOr<ZkmlClient::ProveOutcome> head_result = InternalError("unset");
  std::thread head([&] {
    ZkmlClient c = MustConnect(server);
    ProveRequest req;
    req.model_text = MnistText();
    req.seed = 100;
    head_result = c.Prove(req, 1, kProveWaitMs);
  });
  wait_until([&] { return server.stats().running_jobs == 1; });

  std::vector<StatusOr<ZkmlClient::ProveOutcome>> results(3, InternalError("unset"));
  std::vector<std::chrono::steady_clock::time_point> replied(3);
  std::vector<std::thread> clients;
  for (const size_t i : {size_t{1}, size_t{0}, size_t{2}}) {
    clients.emplace_back([&, i] {
      ZkmlClient c = MustConnect(server);
      ProveRequest req;
      req.model_text = MnistText();
      req.seed = 101 + i;
      if (i == 1) req.deadline_ms = 100;
      results[i] = c.Prove(req, i + 10, kProveWaitMs);
      replied[i] = std::chrono::steady_clock::now();
    });
    // Queue in this order.
    wait_until([&] { return server.stats().jobs_accepted == clients.size() + 1; });
  }
  head.join();
  for (auto& t : clients) t.join();
  ASSERT_TRUE(head_result.ok() && head_result->ok);

  // The expired member is answered alone, at admission, instead of riding the
  // group's proof on another member's budget.
  ASSERT_TRUE(results[1].ok()) << results[1].status().ToString();
  ASSERT_FALSE(results[1]->ok);
  EXPECT_EQ(results[1]->error.code, WireErrorCode::kDeadlineExceeded);
  EXPECT_EQ(results[1]->error.stage, WireStage::kAdmission);
  // ...and answered at once: its reply lands well before the group's, which
  // waits out the group's whole compile and proof (prove_micros).
  ASSERT_TRUE(results[0].ok() && results[0]->ok);
  const auto group_work = std::chrono::microseconds(results[0]->response.prove_micros);
  EXPECT_LT(replied[1] + group_work / 2, replied[0]);
  EXPECT_LT(replied[1] + group_work / 2, replied[2]);

  // The rest of the group still proves, as one batch of two.
  for (size_t i : {size_t{0}, size_t{2}}) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    ASSERT_TRUE(results[i]->ok) << results[i]->error.ToString();
    EXPECT_EQ(results[i]->response.batch, 2u);
    EXPECT_TRUE(LooksLikeBatchedProof(results[i]->response.proof));
  }
  EXPECT_EQ(results[0]->response.proof, results[2]->response.proof);
  EXPECT_EQ(server.stats().jobs_deadline_exceeded, 1u);
  EXPECT_EQ(server.stats().jobs_completed, 3u);
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace zkml
