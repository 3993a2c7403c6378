// CentralServer — owns the hidden layers L2..Lk and the output layer.
//
// Sees only L1 activations and logit gradients — never raw patient data or
// labels (the paper's privacy argument). Because it trains on every
// platform's activations it realizes the "training with all data" benefit.
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "src/core/membership.hpp"
#include "src/core/protocol.hpp"
#include "src/net/network.hpp"
#include "src/nn/sequential.hpp"
#include "src/optim/sgd.hpp"

namespace splitmed::core {

/// Server-side protocol extensions (defaults = the paper's behaviour).
struct ServerOptions {
  /// Negotiated wire codec for activation / cut-grad messages. Must match
  /// the platforms' PlatformOptions::codec; a frame tagged otherwise is a
  /// ProtocolError.
  WireCodec codec = WireCodec::kF32;
  /// When true, activations arriving while a backward is outstanding are
  /// queued and served FIFO (bounded staleness); when false they are
  /// a protocol violation (the paper's strictly sequential workflow).
  bool allow_queueing = false;
  /// WAN fault tolerance: requests are handled idempotently — a duplicated
  /// request (same src, kind, round as one already processed) re-sends the
  /// cached reply instead of re-training on it, and stale frames are counted
  /// and ignored instead of throwing. Off = strict state machine.
  bool tolerate_faults = false;
};

class CentralServer {
 public:
  CentralServer(NodeId id, nn::Sequential body, const optim::SgdOptions& opt,
                ServerOptions options = {});

  /// Handles kActivation (forward L2..Lk, reply logits) and kLogitGrad
  /// (backward, optimizer step, reply cut gradient). The protocol is
  /// sequential per platform: an activation's backward must complete before
  /// the next activation is PROCESSED; with allow_queueing the next
  /// activation may ARRIVE early and waits its turn.
  void handle(net::Network& network, const Envelope& envelope);

  /// Recovery: no request with round < `round` will be treated as new work
  /// anymore (retransmissions of abandoned steps must not start training).
  /// The trainer calls this as each protocol step begins.
  void expect_round(std::uint64_t round);

  /// Recovery: clears a pending forward for `platform` after the trainer
  /// gave up on its step (the logit gradient will never come).
  void abort_pending(NodeId platform);

  /// Attaches the membership authority (not owned; the trainer holds it) and
  /// the roster mapping NodeId -> platform index. Once attached, the server
  /// handles the membership control plane (kHeartbeat / kJoinRequest),
  /// renews leases on every platform frame, and polices incoming updates —
  /// a refused update is answered with kUpdateReject instead of training.
  void set_membership(MembershipService* service,
                      std::vector<NodeId> platform_nodes);

  /// Genesis L1 snapshot (flattened parameter values captured at t=0, when
  /// every platform's replica is identical) served to cold rejoins. The
  /// server never sees a platform's CURRENT L1 — that privacy boundary is
  /// the paper's core argument — so a platform that lost its state restarts
  /// its L1 from genesis.
  void set_genesis_l1(Tensor flat);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] nn::Sequential& body() { return body_; }
  [[nodiscard]] std::int64_t steps_completed() const {
    return steps_completed_;
  }
  /// Idempotent reply re-sends triggered by duplicated requests.
  [[nodiscard]] std::int64_t replays() const { return replays_; }
  /// Stale frames ignored under tolerate_faults.
  [[nodiscard]] std::int64_t stale_ignored() const { return stale_ignored_; }

  /// Serializes the server's complete training state: body parameters and
  /// extra state (BatchNorm statistics), optimizer accumulators, the round
  /// horizon, per-platform request rounds, counters, and the reply cache
  /// (under fault injection, duplicates of pre-crash requests can still be
  /// in flight at the boundary — they travel in the Network checkpoint and
  /// must find the cached reply waiting after resume). Requires no forward
  /// in flight.
  void save_state(BufferWriter& writer);

  /// Mirror of save_state; requires no forward in flight. Throws
  /// SerializationError on malformed or mismatched input — the node must
  /// then be discarded (a failed load may have applied a prefix).
  void load_state(BufferReader& reader);

 private:
  /// Runs forward on a (decoded) activation and replies with logits. When
  /// membership admission already decoded the payload it is passed in via
  /// `decoded` (consumed) so the tensor is never decoded twice.
  void process_activation(net::Network& network, const Envelope& envelope,
                          Tensor* decoded = nullptr);
  /// Roster position of `src`; throws ProtocolError for unknown senders.
  std::size_t member_index(NodeId src) const;
  /// Builds, caches (under tolerate_faults) and sends a kUpdateReject reply.
  void send_reject(net::Network& network, const Envelope& request,
                   MembershipService::Verdict verdict);
  /// Tolerant-mode triage for frames that do not match the strict state
  /// machine: replay the cached reply for a duplicated request, ignore the
  /// rest. Returns true when the frame was consumed.
  bool absorb_faulty(net::Network& network, const Envelope& envelope);

  /// Last reply per platform, keyed by the request that produced it — the
  /// idempotence unit for duplicate/retransmitted requests.
  struct CachedReply {
    std::uint32_t request_kind = 0;
    std::uint64_t request_round = 0;
    Envelope reply;
  };

  NodeId id_;
  nn::Sequential body_;
  optim::Sgd opt_;
  ServerOptions options_;

  bool awaiting_grad_ = false;
  NodeId pending_platform_ = 0;
  std::uint64_t pending_round_ = 0;
  std::int64_t steps_completed_ = 0;
  std::deque<Envelope> queued_activations_;
  std::map<NodeId, CachedReply> reply_cache_;
  /// Round of the newest request processed per platform — a fresh request
  /// must beat it (rejects duplicates arriving after their reply was
  /// already superseded in the cache).
  std::map<NodeId, std::uint64_t> last_request_round_;
  std::uint64_t min_round_ = 0;
  std::int64_t replays_ = 0;
  std::int64_t stale_ignored_ = 0;

  // Membership extension (null/empty when the feature is off — the default,
  // in which case none of the code paths below ever run).
  MembershipService* membership_ = nullptr;
  std::map<NodeId, std::size_t> node_to_index_;
  Tensor genesis_l1_;
  bool has_genesis_ = false;
};

}  // namespace splitmed::core
