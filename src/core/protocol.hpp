// Wire protocol of the split-learning framework (the paper's Fig. 2/3).
//
// One training step for platform k is exactly four messages:
//   1. kActivation  platform -> server : L1 outputs on minibatch s_k
//   2. kLogits      server -> platform : Lk outputs for that minibatch
//   3. kLogitGrad   platform -> server : dLoss/dlogits (loss computed where
//                                        the labels live — on the platform)
//   4. kCutGrad     server -> platform : dLoss/d(L1 output)
// kL1SyncUp/Down implement the optional L1 weight-averaging extension
// (ablation; the paper never re-syncs L1 after initialization).
//
// Tensor payloads are codec-tagged (serial/codec.hpp): the negotiated
// WireCodec (SplitConfig::codec) applies to the bulky activation/cut-grad
// messages; logits and logit-grads are always kF32. A frame whose tag does
// not match what the channel negotiated raises ProtocolError — never UB,
// never a silently mis-decoded tensor.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/serial/message.hpp"
#include "src/serial/wire_codec.hpp"
#include "src/tensor/tensor.hpp"

namespace splitmed::net {
class Network;
}  // namespace splitmed::net

namespace splitmed::core {

enum class MsgKind : std::uint32_t {
  kActivation = 1,
  kLogits = 2,
  kLogitGrad = 3,
  kCutGrad = 4,
  kL1SyncUp = 5,
  kL1SyncDown = 6,
  // Membership control plane (src/core/membership.hpp). Only flows when
  // SplitConfig::membership.enabled — a zero-churn, membership-off session
  // never puts these on the wire, keeping the golden byte series fixed.
  kHeartbeat = 7,    ///< platform -> server : liveness beacon
  kJoinRequest = 8,  ///< platform -> server : rejoin handshake open
  kJoinAccept = 9,   ///< server -> platform : admission (+ genesis L1 if cold)
  kUpdateReject = 10,  ///< server -> platform : update refused, step aborted
};

/// Readable name for reports ("activation", "logits", ...).
const char* msg_kind_name(MsgKind kind);

/// Serializes one tensor as a codec-tagged payload.
std::vector<std::uint8_t> encode_tensor_payload(const Tensor& t,
                                                WireCodec codec =
                                                    WireCodec::kF32);

/// Parses a payload that must contain exactly one tensor tagged `expected`.
/// Unknown tags and malformed frames raise SerializationError; a valid tag
/// that is not the negotiated one raises ProtocolError.
Tensor decode_tensor_payload(std::span<const std::uint8_t> payload,
                             WireCodec expected = WireCodec::kF32);

/// Builds a protocol envelope around one tensor (Envelope::codec mirrors the
/// payload tag for per-codec byte accounting). The uint32 overload exists
/// for baseline protocols with their own kind namespaces.
Envelope make_tensor_envelope(NodeId src, NodeId dst, std::uint32_t kind,
                              std::uint64_t round, const Tensor& t,
                              WireCodec codec = WireCodec::kF32);
inline Envelope make_tensor_envelope(NodeId src, NodeId dst, MsgKind kind,
                                     std::uint64_t round, const Tensor& t,
                                     WireCodec codec = WireCodec::kF32) {
  return make_tensor_envelope(src, dst, static_cast<std::uint32_t>(kind),
                              round, t, codec);
}

/// Hands one whole tensor from `src` to `dst`: sends it as a kF32 frame,
/// receives it at `dst` and decodes it. The L1-sync extension and the
/// baseline protocols move every tensor this way.
Tensor transfer_tensor(net::Network& network, NodeId src, NodeId dst,
                       std::uint32_t kind, std::uint64_t round,
                       const Tensor& t);
inline Tensor transfer_tensor(net::Network& network, NodeId src, NodeId dst,
                              MsgKind kind, std::uint64_t round,
                              const Tensor& t) {
  return transfer_tensor(network, src, dst, static_cast<std::uint32_t>(kind),
                         round, t);
}

}  // namespace splitmed::core
