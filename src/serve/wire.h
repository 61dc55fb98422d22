// The zkml_serve wire protocol: length-prefixed binary frames over TCP.
// Bytes on the socket are ADVERSARIAL — every decoder returns Status /
// StatusOr (the proof_io.h discipline applied to the network), frames carry
// a magic, a version, a payload CRC, and a hard size cap, and every
// rejection is attributed to the pipeline stage that refused the bytes.
//
// Frame layout (all integers little-endian):
//   offset  size  field
//   0       4     magic "ZKSV"
//   4       1     version (kWireVersion; bumped on any incompatible change)
//   5       1     frame type (FrameType)
//   6       2     reserved, must be 0 (room for flags; rejected if nonzero
//                 so a future version can assign meaning)
//   8       8     request id (echoed verbatim in the response)
//   16      4     payload length (<= max_frame_bytes)
//   20      4     CRC-32 of the payload bytes
//   24      n     payload
//
// Versioning rules: the header layout through the version byte is frozen
// forever; a reader that sees any version but kWireVersion must reject with
// kBadVersion (never guess). Adding frame types or payload fields bumps
// kWireVersion; payloads reject trailing bytes, so readers cannot silently
// ignore fields they do not understand.
#ifndef SRC_SERVE_WIRE_H_
#define SRC_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/ff/fields.h"

namespace zkml {
namespace serve {

inline constexpr uint8_t kWireMagic[4] = {'Z', 'K', 'S', 'V'};
// The one protocol version this daemon and its clients speak.
inline constexpr uint8_t kWireVersion = 3;
inline constexpr size_t kFrameHeaderSize = 24;
// Default cap on payload size; a length prefix above the cap is rejected
// before any allocation, so a hostile 4 GiB length cannot balloon memory.
inline constexpr uint32_t kDefaultMaxFrameBytes = 16u << 20;

enum class FrameType : uint8_t {
  kProveRequest = 1,   // client -> server
  kProveResponse = 2,  // server -> client
  kError = 3,          // server -> client
  kPing = 4,           // client -> server (liveness / drain probe)
  kPong = 5,           // server -> client
};

// Where in the serving pipeline a request was rejected. Every error frame
// carries one of these, so a client can tell a corrupt frame from an
// overloaded queue from a deadline that fired mid-proof.
enum class WireStage : uint8_t {
  kFrameHeader = 0,  // magic/version/type/reserved/length validation
  kFramePayload = 1, // CRC or payload structure
  kModelParse = 2,   // model text failed to parse/validate
  kAdmission = 3,    // queue admission (backpressure, drain)
  kCompile = 4,      // circuit compilation / keygen
  kWitness = 5,      // witness generation / input validation
  kProve = 6,        // proof construction
  kRespond = 7,      // response serialization / write-back
};

const char* WireStageName(WireStage stage);

enum class WireErrorCode : uint16_t {
  kBadMagic = 1,
  kBadVersion = 2,
  kBadFrameType = 3,
  kFrameTooLarge = 4,
  kBadCrc = 5,
  kBadReserved = 6,
  kMalformedRequest = 10,  // payload structure invalid
  kMalformedModel = 11,    // model text rejected by the parser/validator
  kInputMismatch = 12,     // explicit input has the wrong element count
  kOverloaded = 13,        // job queue full — back off and retry
  kDeadlineExceeded = 14,  // per-job deadline fired before the proof finished
  kCancelled = 15,         // job reaped (watchdog) or cancelled by drain
  kShuttingDown = 16,      // daemon is draining; no new work accepted
  kInternal = 17,          // unexpected server-side failure
};

const char* WireErrorCodeName(WireErrorCode code);

struct FrameHeader {
  FrameType type = FrameType::kError;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

// CRC-32 (IEEE 802.3, reflected) over `len` bytes.
uint32_t Crc32(const uint8_t* data, size_t len);

// Appends a complete frame (header + payload) to `out`.
void EncodeFrame(std::vector<uint8_t>* out, FrameType type, uint64_t request_id,
                 const std::vector<uint8_t>& payload);

// Validates and decodes a frame header from exactly kFrameHeaderSize bytes.
// Fails kMalformedProof with a message naming the offending field; the
// matching WireErrorCode is returned via `wire_code` so the server can
// answer with the precise rejection.
StatusOr<FrameHeader> DecodeFrameHeader(const uint8_t* buf, uint32_t max_frame_bytes,
                                        WireErrorCode* wire_code);

// Payload-vs-header CRC check, applied after the payload has been read.
Status CheckPayloadCrc(const FrameHeader& header, const std::vector<uint8_t>& payload);

// --- Payload codecs. Every decoder rejects trailing bytes. ---

struct ProveRequest {
  std::string model_text;            // serialized model (the CLI text format)
  uint8_t backend = 0;               // 0 = KZG, 1 = IPA
  uint32_t deadline_ms = 0;          // 0 = server default
  uint64_t seed = 0;                 // synthetic-input seed when input empty
  std::vector<int64_t> input;        // explicit quantized input (optional)
  // Requested shard count: 0/1 = single circuit, >1 = sharded proving (the
  // server clamps to what the model's graph admits).
  uint32_t shards = 0;
  // Requested batch size: 0/1 = one inference, >1 = batched multi-inference
  // proving (one circuit, N inferences). With an explicit `input`, it must
  // carry batch x model-input elements, inference-major.
  uint32_t batch = 0;
};

struct ProveResponse {
  std::vector<uint8_t> proof;
  std::vector<Fr> instance;          // public statement (inputs then outputs)
  std::vector<int64_t> output;       // claimed quantized model output
  uint64_t queue_micros = 0;         // time spent waiting for a worker
  uint64_t prove_micros = 0;         // witness + proof construction
  uint8_t cache_hit = 0;             // compiled-circuit cache hit
  // The plan actually proved, {shards, batch} (shards after clamping). `proof`
  // is its zkml.proof/v2 artifact (src/zkml/plan.h): raw plonk bytes for
  // {1,1}. With batch > 1, `instance`/`output` concatenate the per-inference
  // statements/outputs in order.
  uint32_t shards = 0;
  uint32_t batch = 0;
};

struct WireError {
  WireErrorCode code = WireErrorCode::kInternal;
  WireStage stage = WireStage::kRespond;
  std::string message;

  std::string ToString() const;
};

std::vector<uint8_t> EncodeProveRequest(const ProveRequest& req);
StatusOr<ProveRequest> DecodeProveRequest(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeProveResponse(const ProveResponse& resp);
StatusOr<ProveResponse> DecodeProveResponse(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeWireError(const WireError& err);
StatusOr<WireError> DecodeWireError(const std::vector<uint8_t>& payload);

}  // namespace serve
}  // namespace zkml

#endif  // SRC_SERVE_WIRE_H_
