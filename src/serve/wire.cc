#include "src/serve/wire.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/plonk/proof_io.h"

namespace zkml {
namespace serve {
namespace {

// Little-endian scalar append/read, sharing proof_io.h's bounds discipline.
template <typename T>
void AppendLe(std::vector<uint8_t>* out, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<uint8_t>(static_cast<uint64_t>(v) >> (8 * i)));
  }
}

template <typename T>
Status ReadLe(const std::vector<uint8_t>& in, size_t* offset, T* v, const char* what) {
  if (*offset > in.size() || in.size() - *offset < sizeof(T)) {
    return MalformedProofError(std::string("truncated reading ") + what + " at byte offset " +
                               std::to_string(*offset));
  }
  uint64_t acc = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    acc |= static_cast<uint64_t>((in)[*offset + i]) << (8 * i);
  }
  *offset += sizeof(T);
  *v = static_cast<T>(acc);
  return Status::Ok();
}

Status ReadBytes(const std::vector<uint8_t>& in, size_t* offset, size_t len, const char* what,
                 std::vector<uint8_t>* out) {
  if (*offset > in.size() || in.size() - *offset < len) {
    return MalformedProofError(std::string("truncated reading ") + what + " (need " +
                               std::to_string(len) + " bytes at offset " +
                               std::to_string(*offset) + ", have " +
                               std::to_string(in.size() - *offset) + ")");
  }
  out->assign(in.begin() + static_cast<long>(*offset),
              in.begin() + static_cast<long>(*offset + len));
  *offset += len;
  return Status::Ok();
}

}  // namespace

const char* WireStageName(WireStage stage) {
  switch (stage) {
    case WireStage::kFrameHeader:
      return "frame-header";
    case WireStage::kFramePayload:
      return "frame-payload";
    case WireStage::kModelParse:
      return "model-parse";
    case WireStage::kAdmission:
      return "admission";
    case WireStage::kCompile:
      return "compile";
    case WireStage::kWitness:
      return "witness";
    case WireStage::kProve:
      return "prove";
    case WireStage::kRespond:
      return "respond";
  }
  return "unknown";
}

const char* WireErrorCodeName(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kBadMagic:
      return "BAD_MAGIC";
    case WireErrorCode::kBadVersion:
      return "BAD_VERSION";
    case WireErrorCode::kBadFrameType:
      return "BAD_FRAME_TYPE";
    case WireErrorCode::kFrameTooLarge:
      return "FRAME_TOO_LARGE";
    case WireErrorCode::kBadCrc:
      return "BAD_CRC";
    case WireErrorCode::kBadReserved:
      return "BAD_RESERVED";
    case WireErrorCode::kMalformedRequest:
      return "MALFORMED_REQUEST";
    case WireErrorCode::kMalformedModel:
      return "MALFORMED_MODEL";
    case WireErrorCode::kInputMismatch:
      return "INPUT_MISMATCH";
    case WireErrorCode::kOverloaded:
      return "OVERLOADED";
    case WireErrorCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case WireErrorCode::kCancelled:
      return "CANCELLED";
    case WireErrorCode::kShuttingDown:
      return "SHUTTING_DOWN";
    case WireErrorCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string WireError::ToString() const {
  return std::string(WireErrorCodeName(code)) + " at stage " + WireStageName(stage) +
         (message.empty() ? "" : ": " + message);
}

uint32_t Crc32(const uint8_t* data, size_t len) {
  // Table-driven reflected CRC-32 (polynomial 0xEDB88320), built on first use.
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int b = 0; b < 8; ++b) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void EncodeFrame(std::vector<uint8_t>* out, FrameType type, uint64_t request_id,
                 const std::vector<uint8_t>& payload) {
  out->reserve(out->size() + kFrameHeaderSize + payload.size());
  out->insert(out->end(), kWireMagic, kWireMagic + 4);
  out->push_back(kWireVersion);
  out->push_back(static_cast<uint8_t>(type));
  AppendLe<uint16_t>(out, 0);  // reserved
  AppendLe<uint64_t>(out, request_id);
  AppendLe<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  AppendLe<uint32_t>(out, Crc32(payload.data(), payload.size()));
  out->insert(out->end(), payload.begin(), payload.end());
}

StatusOr<FrameHeader> DecodeFrameHeader(const uint8_t* buf, uint32_t max_frame_bytes,
                                        WireErrorCode* wire_code) {
  *wire_code = WireErrorCode::kInternal;
  if (std::memcmp(buf, kWireMagic, 4) != 0) {
    *wire_code = WireErrorCode::kBadMagic;
    return MalformedProofError("bad frame magic (expected \"ZKSV\")");
  }
  if (buf[4] != kWireVersion) {
    *wire_code = WireErrorCode::kBadVersion;
    return MalformedProofError("unsupported wire version " + std::to_string(buf[4]) +
                               " (this server speaks version " +
                               std::to_string(kWireVersion) + ")");
  }
  const uint8_t type = buf[5];
  if (type != static_cast<uint8_t>(FrameType::kProveRequest) &&
      type != static_cast<uint8_t>(FrameType::kProveResponse) &&
      type != static_cast<uint8_t>(FrameType::kError) &&
      type != static_cast<uint8_t>(FrameType::kPing) &&
      type != static_cast<uint8_t>(FrameType::kPong)) {
    *wire_code = WireErrorCode::kBadFrameType;
    return MalformedProofError("unknown frame type " + std::to_string(type));
  }
  const uint16_t reserved = static_cast<uint16_t>(buf[6]) | static_cast<uint16_t>(buf[7]) << 8;
  if (reserved != 0) {
    *wire_code = WireErrorCode::kBadReserved;
    return MalformedProofError("reserved header bits set (" + std::to_string(reserved) + ")");
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(type);
  for (int i = 0; i < 8; ++i) {
    header.request_id |= static_cast<uint64_t>(buf[8 + i]) << (8 * i);
  }
  for (int i = 0; i < 4; ++i) {
    header.payload_len |= static_cast<uint32_t>(buf[16 + i]) << (8 * i);
    header.payload_crc |= static_cast<uint32_t>(buf[20 + i]) << (8 * i);
  }
  if (header.payload_len > max_frame_bytes) {
    *wire_code = WireErrorCode::kFrameTooLarge;
    return MalformedProofError("declared payload length " + std::to_string(header.payload_len) +
                               " exceeds the " + std::to_string(max_frame_bytes) +
                               "-byte frame cap");
  }
  return header;
}

Status CheckPayloadCrc(const FrameHeader& header, const std::vector<uint8_t>& payload) {
  const uint32_t actual = Crc32(payload.data(), payload.size());
  if (actual != header.payload_crc) {
    return MalformedProofError("payload CRC mismatch (header says " +
                               std::to_string(header.payload_crc) + ", payload hashes to " +
                               std::to_string(actual) + ")");
  }
  return Status::Ok();
}

std::vector<uint8_t> EncodeProveRequest(const ProveRequest& req) {
  std::vector<uint8_t> out;
  out.push_back(req.backend);
  AppendLe<uint32_t>(&out, req.deadline_ms);
  AppendLe<uint64_t>(&out, req.seed);
  AppendLe<uint32_t>(&out, static_cast<uint32_t>(req.input.size()));
  for (int64_t v : req.input) {
    AppendLe<uint64_t>(&out, static_cast<uint64_t>(v));
  }
  AppendLe<uint32_t>(&out, static_cast<uint32_t>(req.model_text.size()));
  out.insert(out.end(), req.model_text.begin(), req.model_text.end());
  AppendLe<uint32_t>(&out, req.shards);
  AppendLe<uint32_t>(&out, req.batch);
  return out;
}

StatusOr<ProveRequest> DecodeProveRequest(const std::vector<uint8_t>& payload) {
  ProveRequest req;
  size_t off = 0;
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &req.backend, "backend"));
  if (req.backend > 1) {
    return MalformedProofError("unknown backend " + std::to_string(req.backend) +
                               " (0 = kzg, 1 = ipa)");
  }
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &req.deadline_ms, "deadline_ms"));
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &req.seed, "seed"));
  uint32_t n_input = 0;
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &n_input, "input count"));
  if (static_cast<size_t>(n_input) > (payload.size() - off) / 8) {
    return MalformedProofError("declared input count " + std::to_string(n_input) +
                               " exceeds remaining payload");
  }
  req.input.resize(n_input);
  for (uint32_t i = 0; i < n_input; ++i) {
    uint64_t raw = 0;
    ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &raw, "input value"));
    req.input[i] = static_cast<int64_t>(raw);
  }
  uint32_t model_len = 0;
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &model_len, "model length"));
  std::vector<uint8_t> model_bytes;
  ZKML_RETURN_IF_ERROR(ReadBytes(payload, &off, model_len, "model text", &model_bytes));
  req.model_text.assign(model_bytes.begin(), model_bytes.end());
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &req.shards, "shard count"));
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &req.batch, "batch size"));
  if (off != payload.size()) {
    return MalformedProofError(std::to_string(payload.size() - off) +
                               " trailing byte(s) in prove request");
  }
  return req;
}

std::vector<uint8_t> EncodeProveResponse(const ProveResponse& resp) {
  std::vector<uint8_t> out;
  AppendLe<uint64_t>(&out, resp.queue_micros);
  AppendLe<uint64_t>(&out, resp.prove_micros);
  out.push_back(resp.cache_hit);
  AppendLe<uint32_t>(&out, static_cast<uint32_t>(resp.proof.size()));
  out.insert(out.end(), resp.proof.begin(), resp.proof.end());
  AppendLe<uint32_t>(&out, static_cast<uint32_t>(resp.instance.size()));
  for (const Fr& v : resp.instance) {
    ProofAppendFr(&out, v);
  }
  AppendLe<uint32_t>(&out, static_cast<uint32_t>(resp.output.size()));
  for (int64_t v : resp.output) {
    AppendLe<uint64_t>(&out, static_cast<uint64_t>(v));
  }
  AppendLe<uint32_t>(&out, resp.shards);
  AppendLe<uint32_t>(&out, resp.batch);
  return out;
}

StatusOr<ProveResponse> DecodeProveResponse(const std::vector<uint8_t>& payload) {
  ProveResponse resp;
  size_t off = 0;
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &resp.queue_micros, "queue micros"));
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &resp.prove_micros, "prove micros"));
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &resp.cache_hit, "cache-hit flag"));
  uint32_t proof_len = 0;
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &proof_len, "proof length"));
  ZKML_RETURN_IF_ERROR(ReadBytes(payload, &off, proof_len, "proof bytes", &resp.proof));
  uint32_t n_inst = 0;
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &n_inst, "instance count"));
  if (static_cast<size_t>(n_inst) > (payload.size() - off) / kProofFrSize) {
    return MalformedProofError("declared instance count " + std::to_string(n_inst) +
                               " exceeds remaining payload");
  }
  resp.instance.resize(n_inst);
  for (uint32_t i = 0; i < n_inst; ++i) {
    ZKML_RETURN_IF_ERROR(ProofReadFr(payload, &off, &resp.instance[i], "instance value"));
  }
  uint32_t n_out = 0;
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &n_out, "output count"));
  if (static_cast<size_t>(n_out) > (payload.size() - off) / 8) {
    return MalformedProofError("declared output count " + std::to_string(n_out) +
                               " exceeds remaining payload");
  }
  resp.output.resize(n_out);
  for (uint32_t i = 0; i < n_out; ++i) {
    uint64_t raw = 0;
    ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &raw, "output value"));
    resp.output[i] = static_cast<int64_t>(raw);
  }
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &resp.shards, "response shard count"));
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &resp.batch, "response batch size"));
  if (off != payload.size()) {
    return MalformedProofError(std::to_string(payload.size() - off) +
                               " trailing byte(s) in prove response");
  }
  return resp;
}

std::vector<uint8_t> EncodeWireError(const WireError& err) {
  const size_t msg_len = std::min<size_t>(err.message.size(), 65535);
  std::vector<uint8_t> out;
  AppendLe<uint16_t>(&out, static_cast<uint16_t>(err.code));
  out.push_back(static_cast<uint8_t>(err.stage));
  AppendLe<uint16_t>(&out, static_cast<uint16_t>(msg_len));
  out.insert(out.end(), err.message.begin(), err.message.begin() + static_cast<long>(msg_len));
  return out;
}

StatusOr<WireError> DecodeWireError(const std::vector<uint8_t>& payload) {
  WireError err;
  size_t off = 0;
  uint16_t code = 0;
  uint8_t stage = 0;
  uint16_t msg_len = 0;
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &code, "error code"));
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &stage, "error stage"));
  ZKML_RETURN_IF_ERROR(ReadLe(payload, &off, &msg_len, "message length"));
  std::vector<uint8_t> msg;
  ZKML_RETURN_IF_ERROR(ReadBytes(payload, &off, msg_len, "error message", &msg));
  if (off != payload.size()) {
    return MalformedProofError(std::to_string(payload.size() - off) +
                               " trailing byte(s) in error frame");
  }
  err.code = static_cast<WireErrorCode>(code);
  err.stage = static_cast<WireStage>(stage);
  err.message.assign(msg.begin(), msg.end());
  return err;
}

}  // namespace serve
}  // namespace zkml
