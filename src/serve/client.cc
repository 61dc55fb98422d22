#include "src/serve/client.h"

namespace zkml {
namespace serve {

StatusOr<ZkmlClient> ZkmlClient::Connect(const std::string& host, uint16_t port,
                                         int timeout_ms) {
  ZKML_ASSIGN_OR_RETURN(Socket sock, Socket::ConnectTcp(host, port, timeout_ms));
  return ZkmlClient(std::move(sock));
}

Status ZkmlClient::SendFrame(FrameType type, uint64_t request_id,
                             const std::vector<uint8_t>& payload, int timeout_ms) {
  std::vector<uint8_t> out;
  EncodeFrame(&out, type, request_id, payload);
  return sock_.WriteFull(out.data(), out.size(), timeout_ms);
}

StatusOr<std::pair<FrameHeader, std::vector<uint8_t>>> ZkmlClient::ReadFrame(int timeout_ms) {
  uint8_t header[kFrameHeaderSize];
  ZKML_RETURN_IF_ERROR(sock_.ReadFull(header, kFrameHeaderSize, timeout_ms));
  WireErrorCode ignored;
  ZKML_ASSIGN_OR_RETURN(FrameHeader hdr,
                        DecodeFrameHeader(header, kDefaultMaxFrameBytes, &ignored));
  std::vector<uint8_t> payload(hdr.payload_len);
  if (hdr.payload_len > 0) {
    ZKML_RETURN_IF_ERROR(sock_.ReadFull(payload.data(), payload.size(), timeout_ms));
  }
  ZKML_RETURN_IF_ERROR(CheckPayloadCrc(hdr, payload));
  return std::make_pair(hdr, std::move(payload));
}

StatusOr<ZkmlClient::ProveOutcome> ZkmlClient::Prove(const ProveRequest& request,
                                                     uint64_t request_id, int timeout_ms) {
  ZKML_RETURN_IF_ERROR(
      SendFrame(FrameType::kProveRequest, request_id, EncodeProveRequest(request), timeout_ms));
  ZKML_ASSIGN_OR_RETURN(auto frame, ReadFrame(timeout_ms));
  const FrameHeader& hdr = frame.first;
  if (hdr.request_id != request_id) {
    return MalformedProofError("response echoes request id " + std::to_string(hdr.request_id) +
                               ", expected " + std::to_string(request_id));
  }
  ProveOutcome out;
  if (hdr.type == FrameType::kProveResponse) {
    ZKML_ASSIGN_OR_RETURN(out.response, DecodeProveResponse(frame.second));
    out.ok = true;
    return out;
  }
  if (hdr.type == FrameType::kError) {
    ZKML_ASSIGN_OR_RETURN(out.error, DecodeWireError(frame.second));
    out.ok = false;
    return out;
  }
  return MalformedProofError("unexpected frame type in prove reply");
}

Status ZkmlClient::Ping(uint64_t request_id, int timeout_ms) {
  ZKML_RETURN_IF_ERROR(SendFrame(FrameType::kPing, request_id, {}, timeout_ms));
  ZKML_ASSIGN_OR_RETURN(auto frame, ReadFrame(timeout_ms));
  if (frame.first.type != FrameType::kPong || frame.first.request_id != request_id) {
    return MalformedProofError("ping reply is not the matching pong");
  }
  return Status::Ok();
}

}  // namespace serve
}  // namespace zkml
