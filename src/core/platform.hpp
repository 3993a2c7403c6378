// PlatformNode — one geo-distributed medical platform (hospital).
//
// Owns: the raw local dataset shard (never serialized), the labels, the
// first hidden layer L1 and its optimizer, and the loss (computed here so
// labels never leave the platform). Drives its half of the 4-message
// protocol; see core/protocol.hpp for the message sequence.
#pragma once

#include <cstdint>
#include <optional>

#include "src/core/membership.hpp"
#include "src/core/protocol.hpp"
#include "src/data/dataloader.hpp"
#include "src/net/network.hpp"
#include "src/nn/loss.hpp"
#include "src/nn/sequential.hpp"
#include "src/optim/sgd.hpp"

namespace splitmed::core {

/// Per-platform protocol extensions (all default to the paper's behaviour).
struct PlatformOptions {
  /// Negotiated wire codec for activation / cut-grad messages (logits and
  /// logit-grads stay f32). Must match the server's ServerOptions::codec.
  WireCodec codec = WireCodec::kF32;
  /// Gaussian noise added to outgoing activations (privacy defense; 0 = off).
  float smash_noise_std = 0.0F;
  std::uint64_t noise_seed = 17;
  /// WAN fault tolerance: stale / duplicated protocol messages are counted
  /// and ignored instead of throwing, and the most recent outgoing message
  /// is cached so the recovery layer can retransmit it. Off = the paper's
  /// strict state machine (any anomaly is a ProtocolError).
  bool tolerate_faults = false;
};

/// Protocol position of a platform; exposed so the recovery layer can tell
/// when a step progressed without inspecting message contents.
enum class PlatformState { kIdle, kAwaitLogits, kAwaitCutGrad };

class PlatformNode {
 public:
  PlatformNode(NodeId id, NodeId server_id, nn::Sequential l1,
               data::DataLoader loader, const optim::SgdOptions& opt,
               PlatformOptions options = {});

  /// Paper workflow step 1: draws the next minibatch (size set by
  /// set_minibatch_size), runs L1 forward, ships the activations.
  void send_activation(net::Network& network, std::uint64_t round);

  /// Handles kLogits (compute loss + send logit grads), kCutGrad (backprop
  /// L1, apply the local optimizer step), kUpdateReject (abort the in-flight
  /// step — the server refused the update) and kJoinAccept (complete a
  /// rejoin handshake; a cold accept overwrites L1 with the genesis weights
  /// and resets the optimizer). Throws ProtocolError on out-of-order or
  /// foreign messages — unless tolerate_faults, which counts and ignores
  /// stale/duplicate frames (WAN recovery).
  void handle(net::Network& network, const Envelope& envelope);

  /// Membership liveness beacon (kHeartbeat). `index` is this platform's
  /// roster position (payloads carry indices, not NodeIds).
  void send_heartbeat(net::Network& network, std::uint32_t index,
                      std::uint64_t round);

  /// Opens a rejoin handshake (kJoinRequest); the platform then awaits a
  /// kJoinAccept for `round`. Requires kIdle and no handshake in flight.
  void send_join_request(net::Network& network, std::uint32_t index,
                         std::uint64_t round, RejoinMode mode);

  /// Abandons an unanswered join handshake (retransmissions exhausted); the
  /// trainer retries next round.
  void abort_join();

  /// Chaos-harness hook: corrupt outgoing tensors until clear_poison().
  /// kNonFinite injects a NaN into the logit-grad (the always-f32 channel —
  /// an i8-negotiated activation could not even encode a NaN); kNormBomb
  /// scales both the activation and the logit-grad by `scale`.
  void set_poison(PoisonKind kind, float scale);
  void clear_poison();

  /// Re-sends the most recent outgoing message, flagged as a retransmission
  /// (recovery path; requires tolerate_faults and a message in flight).
  void resend_last(net::Network& network);

  /// Abandons the in-flight step after retransmissions were exhausted: the
  /// platform returns to Idle without applying an optimizer step (the drawn
  /// minibatch is lost — the hospital was unreachable this round).
  void abort_step();

  /// Paper's imbalance mitigation: the trainer sets s_k per round.
  void set_minibatch_size(std::int64_t s);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] std::int64_t shard_size() const {
    return loader_.shard_size();
  }
  [[nodiscard]] float last_loss() const { return last_loss_; }
  [[nodiscard]] double last_batch_accuracy() const {
    return last_batch_accuracy_;
  }
  /// Number of optimizer steps completed (== protocol rounds finished).
  [[nodiscard]] std::int64_t steps_completed() const {
    return steps_completed_;
  }
  [[nodiscard]] PlatformState state() const { return state_; }
  /// Stale or duplicated messages ignored under tolerate_faults.
  [[nodiscard]] std::int64_t stale_ignored() const { return stale_ignored_; }
  /// Steps abandoned by abort_step().
  [[nodiscard]] std::int64_t aborted_steps() const { return aborted_steps_; }
  /// Examples drawn from the loader but discarded by abort_step() — work the
  /// epoch accounting would otherwise silently lose.
  [[nodiscard]] std::int64_t examples_lost() const { return examples_lost_; }
  /// True while a join handshake awaits its kJoinAccept.
  [[nodiscard]] bool awaiting_join() const { return awaiting_join_; }
  /// Steps aborted because the server refused the update (kUpdateReject).
  [[nodiscard]] std::int64_t rejected_steps() const { return rejected_steps_; }
  /// Join handshakes completed (kJoinAccept received).
  [[nodiscard]] std::int64_t rejoins_completed() const {
    return rejoins_completed_;
  }
  [[nodiscard]] std::uint64_t heartbeats_sent() const { return beats_sent_; }
  [[nodiscard]] nn::Sequential& l1() { return l1_; }

  /// Serializes the platform's complete training state: L1 parameters and
  /// extra state (BatchNorm statistics), optimizer accumulators, loader
  /// iteration state, the noise Rng, and the per-step counters/caches.
  /// Raw examples and labels are NEVER written — they live only on the
  /// platform (the trust boundary), and the loader shard is rebuilt from
  /// config. Requires kIdle (checkpoints happen at round boundaries), so
  /// mid-step caches (pending labels, last-sent frame) are vacuously empty
  /// and are not serialized.
  void save_state(BufferWriter& writer);

  /// Mirror of save_state; requires kIdle. Throws SerializationError on
  /// malformed or mismatched input — the node must then be discarded (a
  /// failed load may have applied a prefix of the fields).
  void load_state(BufferReader& reader);

 private:
  NodeId id_;
  NodeId server_;
  nn::Sequential l1_;
  data::DataLoader loader_;
  optim::Sgd opt_;
  nn::SoftmaxCrossEntropy loss_;
  PlatformOptions options_;
  Rng noise_rng_;

  void apply_poison(Tensor& t, bool f32_channel) const;

  PlatformState state_ = PlatformState::kIdle;
  std::uint64_t pending_round_ = 0;
  std::vector<std::int64_t> pending_labels_;
  std::optional<Envelope> last_sent_;  // cached only under tolerate_faults
  float last_loss_ = 0.0F;
  double last_batch_accuracy_ = 0.0;
  std::int64_t steps_completed_ = 0;
  std::int64_t stale_ignored_ = 0;
  std::int64_t aborted_steps_ = 0;
  std::int64_t examples_lost_ = 0;

  // Membership extension state. The poison fields are chaos-harness config
  // (reapplied per round from the ChurnPlan), not checkpointed; the
  // counters and the beat sequence are.
  bool awaiting_join_ = false;
  std::uint64_t join_round_ = 0;
  std::uint64_t beats_sent_ = 0;
  std::int64_t rejected_steps_ = 0;
  std::int64_t rejoins_completed_ = 0;
  std::optional<PoisonKind> poison_;
  float poison_scale_ = 1.0F;
};

}  // namespace splitmed::core
