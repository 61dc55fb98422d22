// Wire-protocol fault injection against a live in-process ZkmlServer: 500+
// seeded hostile interactions — truncated frames, oversize length prefixes,
// garbage behind valid headers (with and without a fixed-up CRC), corrupt
// CRCs, slowloris byte-trickles, mid-stream disconnects, and
// ByteMutator-mangled valid frames. After every interaction the daemon must
// still answer a well-formed ping; every explicit rejection must carry stage
// attribution. Run under ZKML_SANITIZE in CI, this doubles as the
// crash/leak/deadlock harness for the whole serving stack.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/byte_mutator.h"
#include "src/base/rng.h"
#include "src/serve/client.h"
#include "src/serve/server.h"

namespace zkml {
namespace serve {
namespace {

constexpr int kInteractions = 500;

// A well-formed prove-request frame as mutation raw material. The bogus model
// text keeps the server's work cheap (rejected at model-parse) while still
// exercising framing, CRC, decode, and admission.
std::vector<uint8_t> TemplateFrame(uint64_t request_id) {
  ProveRequest req;
  req.model_text = "bogus model bytes for fault injection";
  req.seed = request_id;
  std::vector<uint8_t> frame;
  EncodeFrame(&frame, FrameType::kProveRequest, request_id, EncodeProveRequest(req));
  return frame;
}

// Rewrites the length and CRC fields to match the (possibly mutated) payload
// bytes, so the frame passes framing checks and the mutation reaches the
// payload decoder instead of dying at the CRC gate.
void FixupLengthAndCrc(std::vector<uint8_t>* frame) {
  if (frame->size() < kFrameHeaderSize) return;
  const uint32_t plen = static_cast<uint32_t>(frame->size() - kFrameHeaderSize);
  const uint32_t crc = Crc32(frame->data() + kFrameHeaderSize, plen);
  for (int i = 0; i < 4; ++i) {
    (*frame)[16 + i] = static_cast<uint8_t>(plen >> (8 * i));
    (*frame)[20 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

struct InjectionTally {
  uint64_t sent = 0;
  uint64_t error_frames = 0;
  uint64_t stage_attributed = 0;
  uint64_t by_kind[9] = {0};
};

void InjectOne(const ZkmlServer& server, Rng& rng, ByteMutator& mutator, int kind,
               InjectionTally* tally) {
  StatusOr<ZkmlClient> client = ZkmlClient::Connect("127.0.0.1", server.port(), 2000);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Socket& sock = client->socket();
  std::vector<uint8_t> frame = TemplateFrame(rng.NextU64());
  ++tally->sent;
  ++tally->by_kind[kind];
  bool expect_reply = true;

  switch (kind) {
    case 0:  // truncated frame, then immediate disconnect
      mutator.Truncate(&frame);
      expect_reply = false;
      break;
    case 1: {  // length prefix far beyond the frame cap
      const uint32_t huge = 0xf0000000u;
      for (int i = 0; i < 4; ++i) frame[16 + i] = static_cast<uint8_t>(huge >> (8 * i));
      break;
    }
    case 2:  // garbage payload behind a valid header (CRC now stale)
      for (size_t i = kFrameHeaderSize; i < frame.size(); ++i) {
        frame[i] = static_cast<uint8_t>(rng.NextU64());
      }
      break;
    case 3:  // garbage payload with a *fixed-up* CRC: reaches the decoder
      for (size_t i = kFrameHeaderSize; i < frame.size(); ++i) {
        frame[i] = static_cast<uint8_t>(rng.NextU64());
      }
      FixupLengthAndCrc(&frame);
      break;
    case 4:  // corrupt CRC field only
      frame[20 + rng.NextBelow(4)] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
      break;
    case 5: {  // slowloris: trickle a prefix one byte at a time, then hang up
      const size_t n = std::min<size_t>(frame.size(), 1 + rng.NextBelow(48));
      for (size_t i = 0; i < n; ++i) {
        if (!sock.WriteFull(frame.data() + i, 1, 500).ok()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1 + rng.NextBelow(3)));
      }
      return;  // close mid-frame; the server must shed the slow client
    }
    case 6:  // pure noise, no structure
      frame.resize(1 + rng.NextBelow(80));
      for (auto& b : frame) b = static_cast<uint8_t>(rng.NextU64());
      break;
    case 7:  // header only, then mid-stream disconnect
      frame.resize(kFrameHeaderSize);
      expect_reply = false;
      break;
    default: {  // ByteMutator-mangled valid frame (1-3 stacked mutations)
      for (uint64_t m = 0, n = 1 + rng.NextBelow(3); m < n; ++m) {
        switch (rng.NextBelow(5)) {
          case 0: mutator.FlipBit(&frame); break;
          case 1: mutator.Truncate(&frame); break;
          case 2: mutator.Extend(&frame); break;
          case 3: mutator.Garbage(&frame); break;
          default: mutator.SwapWindows(&frame, 8); break;
        }
      }
      break;
    }
  }

  if (!frame.empty()) {
    (void)sock.WriteFull(frame.data(), frame.size(), 2000);
  }
  if (!expect_reply) {
    return;  // disconnect without reading: must not wedge a handler
  }
  // Mutations can land on accidentally-valid frames or incomplete prefixes
  // the server is still waiting on, so a timeout here is legitimate; an
  // error frame, when one arrives, must decode with stage attribution.
  StatusOr<std::pair<FrameHeader, std::vector<uint8_t>>> reply = client->ReadFrame(500);
  if (reply.ok() && reply->first.type == FrameType::kError) {
    ++tally->error_frames;
    StatusOr<WireError> err = DecodeWireError(reply->second);
    EXPECT_TRUE(err.ok()) << "error frame did not decode: " << err.status().ToString();
    if (err.ok()) ++tally->stage_attributed;
  }
}

// A version-1 prove-request frame smuggling a nonzero trailing shards field
// must be hard-rejected, never silently treated as an unsharded request. The
// daemon speaks only kWireVersion, so the rejection is BAD_VERSION at the
// frame header, before the payload decoder or admission sees the bytes, and
// the connection is closed. The same payload under the current version does
// decode and reaches the model parser (the model text is bogus), so the
// rejection is about the version, not the payload.
TEST(ServeFaultTest, V1FrameWithNonzeroTrailingShardsHardRejected) {
  ServeOptions options;
  options.num_workers = 1;
  ZkmlServer server(options);
  ASSERT_TRUE(server.Start().ok());

  ProveRequest req;
  req.model_text = "bogus model bytes";
  req.shards = 4;
  const std::vector<uint8_t> payload = EncodeProveRequest(req);
  std::vector<uint8_t> frame;
  EncodeFrame(&frame, FrameType::kProveRequest, 77, payload);
  frame[4] = 1;

  StatusOr<ZkmlClient> client = ZkmlClient::Connect("127.0.0.1", server.port(), 2000);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->socket().WriteFull(frame.data(), frame.size(), 2000).ok());
  StatusOr<std::pair<FrameHeader, std::vector<uint8_t>>> reply = client->ReadFrame(5000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->first.type, FrameType::kError);
  StatusOr<WireError> err = DecodeWireError(reply->second);
  ASSERT_TRUE(err.ok()) << err.status().ToString();
  EXPECT_EQ(err->code, WireErrorCode::kBadVersion);
  EXPECT_EQ(err->stage, WireStage::kFrameHeader);
  EXPECT_NE(err->message.find("wire version"), std::string::npos) << err->message;
  EXPECT_FALSE(client->ReadFrame(1000).ok());  // closed server-side
  EXPECT_EQ(server.stats().jobs_rejected_malformed, 0u);

  std::vector<uint8_t> frame2;
  EncodeFrame(&frame2, FrameType::kProveRequest, 78, payload);
  StatusOr<ZkmlClient> client2 = ZkmlClient::Connect("127.0.0.1", server.port(), 2000);
  ASSERT_TRUE(client2.ok());
  ASSERT_TRUE(client2->socket().WriteFull(frame2.data(), frame2.size(), 2000).ok());
  StatusOr<std::pair<FrameHeader, std::vector<uint8_t>>> reply2 = client2->ReadFrame(5000);
  ASSERT_TRUE(reply2.ok()) << reply2.status().ToString();
  ASSERT_EQ(reply2->first.type, FrameType::kError);
  StatusOr<WireError> err2 = DecodeWireError(reply2->second);
  ASSERT_TRUE(err2.ok());
  EXPECT_EQ(err2->code, WireErrorCode::kMalformedModel);
  EXPECT_EQ(err2->stage, WireStage::kModelParse);

  server.Stop();
}

TEST(ServeFaultTest, SurvivesHundredsOfHostileWireInteractions) {
  ServeOptions options;
  options.num_workers = 1;
  options.queue_capacity = 4;
  options.poll_interval_ms = 10;
  options.io_timeout_ms = 150;  // tight budget: slowloris is cut off fast
  options.watchdog_period_ms = 10;
  ZkmlServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Rng rng(2024);
  ByteMutator mutator(&rng);
  InjectionTally tally;
  for (int i = 0; i < kInteractions; ++i) {
    const int kind = static_cast<int>(rng.NextBelow(9));
    ASSERT_NO_FATAL_FAILURE(InjectOne(server, rng, mutator, kind, &tally)) << "interaction " << i;

    // Liveness after every interaction: a fresh well-formed ping must answer.
    StatusOr<ZkmlClient> probe = ZkmlClient::Connect("127.0.0.1", server.port(), 2000);
    ASSERT_TRUE(probe.ok()) << "daemon unreachable after interaction " << i << " (kind " << kind
                            << "): " << probe.status().ToString();
    ASSERT_TRUE(probe->Ping(static_cast<uint64_t>(i), 3000).ok())
        << "daemon unresponsive after interaction " << i << " (kind " << kind << ")";
  }

  EXPECT_EQ(tally.sent, static_cast<uint64_t>(kInteractions));
  // Every explicit rejection carried stage attribution.
  EXPECT_EQ(tally.error_frames, tally.stage_attributed);
  // The deterministic seed guarantees a healthy mix actually elicited
  // explicit rejections (not just silent closes).
  EXPECT_GT(tally.error_frames, 100u);
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.jobs_completed, 0u);  // nothing hostile may produce a proof
  std::printf("fault tally: %llu sent, %llu error frames (%llu attributed), "
              "%llu protocol errors, %llu slow clients closed, %llu malformed jobs\n",
              static_cast<unsigned long long>(tally.sent),
              static_cast<unsigned long long>(tally.error_frames),
              static_cast<unsigned long long>(tally.stage_attributed),
              static_cast<unsigned long long>(stats.protocol_errors),
              static_cast<unsigned long long>(stats.slow_clients_closed),
              static_cast<unsigned long long>(stats.jobs_rejected_malformed));

  // After the onslaught the daemon still does real work: a final well-formed
  // request flows through the whole pipeline (rejected at model-parse, since
  // the template model is bogus — but by the *server's* parser, cleanly).
  ZkmlClient client = *ZkmlClient::Connect("127.0.0.1", server.port(), 2000);
  ProveRequest req;
  req.model_text = "still not a model";
  StatusOr<ZkmlClient::ProveOutcome> r = client.Prove(req, 9999, 5000);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->ok);
  EXPECT_EQ(r->error.code, WireErrorCode::kMalformedModel);
  EXPECT_EQ(r->error.stage, WireStage::kModelParse);

  server.Stop();  // graceful drain after sustained abuse; no leaks under asan
}

}  // namespace
}  // namespace serve
}  // namespace zkml
