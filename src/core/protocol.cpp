#include "src/core/protocol.hpp"

#include <string>

#include "src/common/error.hpp"
#include "src/net/network.hpp"
#include "src/obs/obs.hpp"
#include "src/serial/buffer.hpp"
#include "src/serial/codec.hpp"

namespace splitmed::core {

const char* msg_kind_name(MsgKind kind) {
  switch (kind) {
    case MsgKind::kActivation: return "activation";
    case MsgKind::kLogits: return "logits";
    case MsgKind::kLogitGrad: return "logit-grad";
    case MsgKind::kCutGrad: return "cut-grad";
    case MsgKind::kL1SyncUp: return "l1-sync-up";
    case MsgKind::kL1SyncDown: return "l1-sync-down";
    case MsgKind::kHeartbeat: return "heartbeat";
    case MsgKind::kJoinRequest: return "join-request";
    case MsgKind::kJoinAccept: return "join-accept";
    case MsgKind::kUpdateReject: return "update-reject";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_tensor_payload(const Tensor& t,
                                                WireCodec codec) {
  BufferWriter w;
  encode_tensor_tagged(t, codec, w);
  return w.take();
}

Tensor decode_tensor_payload(std::span<const std::uint8_t> payload,
                             WireCodec expected) {
  // postmortem() at this boundary covers every decode failure — truncated
  // buffers, unknown or mismatched codec tags, trailing bytes — so a
  // malformed frame dumps the flight recorder before the error unwinds past
  // protocol code.
  try {
    BufferReader r(payload);
    TaggedTensor tagged = decode_tensor_tagged(r);
    if (tagged.codec != expected) {
      throw ProtocolError(std::string("tensor frame tagged ") +
                          wire_codec_name(tagged.codec) +
                          " on a channel negotiated for " +
                          wire_codec_name(expected));
    }
    if (!r.exhausted()) {
      throw SerializationError("tensor payload has trailing bytes");
    }
    return std::move(tagged.tensor);
  } catch (const SerializationError& e) {
    obs::postmortem(e.what());
    throw;
  } catch (const ProtocolError& e) {
    obs::postmortem(e.what());
    throw;
  }
}

Envelope make_tensor_envelope(NodeId src, NodeId dst, std::uint32_t kind,
                              std::uint64_t round, const Tensor& t,
                              WireCodec codec) {
  Envelope e =
      make_envelope(src, dst, kind, round, encode_tensor_payload(t, codec));
  e.codec = codec;
  return e;
}

Tensor transfer_tensor(net::Network& network, NodeId src, NodeId dst,
                       std::uint32_t kind, std::uint64_t round,
                       const Tensor& t) {
  network.send(make_tensor_envelope(src, dst, kind, round, t));
  return decode_tensor_payload(network.receive(dst).payload);
}

}  // namespace splitmed::core
