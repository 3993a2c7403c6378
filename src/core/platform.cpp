#include "src/core/platform.hpp"

#include <limits>

#include "src/common/error.hpp"
#include "src/nn/checkpoint.hpp"
#include "src/nn/param_util.hpp"
#include "src/obs/obs.hpp"
#include "src/serial/state_codec.hpp"

namespace splitmed::core {

PlatformNode::PlatformNode(NodeId id, NodeId server_id, nn::Sequential l1,
                           data::DataLoader loader,
                           const optim::SgdOptions& opt,
                           PlatformOptions options)
    : id_(id),
      server_(server_id),
      l1_(std::move(l1)),
      loader_(std::move(loader)),
      opt_(l1_.parameters(), opt),
      options_(options),
      noise_rng_(options.noise_seed ^
                 (0x6C62272E07BB0142ULL + static_cast<std::uint64_t>(id))) {
  SPLITMED_CHECK(options_.smash_noise_std >= 0.0F,
                 "smash noise stddev must be >= 0");
}

void PlatformNode::set_minibatch_size(std::int64_t s) {
  loader_.set_batch_size(s);
}

void PlatformNode::send_activation(net::Network& network,
                                   std::uint64_t round) {
  SPLITMED_CHECK(state_ == PlatformState::kIdle,
                 "platform " << id_ << ": send_activation while mid-step");
  obs::Span span(obs::trace(), "platform.l1_forward", "core");
  span.arg("platform", static_cast<std::uint64_t>(id_));
  span.arg("round", round);
  data::Batch batch = loader_.next_batch();
  pending_labels_ = std::move(batch.labels);
  pending_round_ = round;
  Tensor activation = l1_.forward(batch.images, /*training=*/true);
  if (options_.smash_noise_std > 0.0F) {
    // Privacy defense: the server only ever sees a noised view of the
    // smashed data. L1's own cache stays clean — the noise is part of the
    // channel, not of the platform's backward pass.
    auto d = activation.data();
    for (auto& v : d) v += options_.smash_noise_std * noise_rng_.normal();
  }
  apply_poison(activation, /*f32_channel=*/false);
  Envelope out = make_tensor_envelope(id_, server_, MsgKind::kActivation,
                                      round, activation, options_.codec);
  out.trace.platform = id_;
  out.trace.step = round;
  if (options_.tolerate_faults) last_sent_ = out;
  network.send(std::move(out));
  state_ = PlatformState::kAwaitLogits;
}

void PlatformNode::resend_last(net::Network& network) {
  SPLITMED_CHECK(options_.tolerate_faults,
                 "resend_last requires tolerate_faults");
  SPLITMED_CHECK(last_sent_.has_value(),
                 "platform " << id_ << ": nothing to retransmit");
  Envelope copy = *last_sent_;
  copy.retransmit = true;
  copy.trace.attempt = ++last_sent_->trace.attempt;
  network.send(std::move(copy));
}

void PlatformNode::abort_step() {
  SPLITMED_CHECK(state_ != PlatformState::kIdle,
                 "platform " << id_ << ": abort_step while idle");
  state_ = PlatformState::kIdle;
  // The loader already consumed this minibatch; abandoning the step means
  // those examples never reach an optimizer step anywhere. Count them —
  // epoch accounting and the fault benches must show the lost work, not
  // silently absorb it.
  examples_lost_ += static_cast<std::int64_t>(pending_labels_.size());
  pending_labels_.clear();
  last_sent_.reset();
  ++aborted_steps_;
}

void PlatformNode::handle(net::Network& network, const Envelope& envelope) {
  if (envelope.dst != id_) {
    const std::string reason = "platform " + std::to_string(id_) +
                               " got a message addressed to node " +
                               std::to_string(envelope.dst);
    obs::postmortem(reason);
    throw ProtocolError(reason);
  }
  const auto kind = static_cast<MsgKind>(envelope.kind);
  // Which message would advance the state machine right now?
  const bool mid_step = state_ == PlatformState::kAwaitLogits ||
                        state_ == PlatformState::kAwaitCutGrad;
  const bool expected =
      (state_ == PlatformState::kAwaitLogits && kind == MsgKind::kLogits &&
       envelope.round == pending_round_) ||
      (state_ == PlatformState::kAwaitCutGrad && kind == MsgKind::kCutGrad &&
       envelope.round == pending_round_) ||
      (mid_step && kind == MsgKind::kUpdateReject &&
       envelope.round == pending_round_) ||
      (awaiting_join_ && kind == MsgKind::kJoinAccept &&
       envelope.round == join_round_);
  if (!expected) {
    if (options_.tolerate_faults &&
        (kind == MsgKind::kLogits || kind == MsgKind::kCutGrad ||
         kind == MsgKind::kUpdateReject || kind == MsgKind::kJoinAccept)) {
      // A duplicated delivery or a reply to a step already completed or
      // abandoned — drop it; the WAN produced it, not a peer bug.
      ++stale_ignored_;
      if (obs::FlightRecorder* fr = obs::flight()) {
        fr->note(-1.0, "platform " + std::to_string(id_) +
                           " ignored stale " + msg_kind_name(kind) +
                           " round=" + std::to_string(envelope.round));
      }
      return;
    }
    if (envelope.round != pending_round_) {
      const std::string reason =
          "platform " + std::to_string(id_) + " expected round " +
          std::to_string(pending_round_) + ", got " +
          std::to_string(envelope.round);
      obs::postmortem(reason);
      throw ProtocolError(reason);
    }
    const std::string reason =
        (kind == MsgKind::kLogits || kind == MsgKind::kCutGrad)
            ? std::string("platform: unexpected ") + msg_kind_name(kind) +
                  " message"
            : std::string("platform: unexpected message kind '") +
                  msg_kind_name(kind) + "'";
    obs::postmortem(reason);
    throw ProtocolError(reason);
  }
  if (kind == MsgKind::kLogits) {
    obs::Span span(obs::trace(), "platform.loss_backward", "core");
    span.arg("platform", static_cast<std::uint64_t>(id_));
    span.arg("round", envelope.round);
    const Tensor logits = decode_tensor_payload(envelope.payload);
    last_loss_ = loss_.forward(logits, pending_labels_);
    last_batch_accuracy_ = nn::accuracy(logits, pending_labels_);
    Tensor logit_grad = loss_.backward();
    apply_poison(logit_grad, /*f32_channel=*/true);
    Envelope grad = make_tensor_envelope(id_, server_, MsgKind::kLogitGrad,
                                         pending_round_, logit_grad);
    grad.trace.platform = id_;
    grad.trace.step = pending_round_;
    grad.trace.parent_flow = envelope.trace.flow_id;
    if (options_.tolerate_faults) last_sent_ = grad;
    network.send(std::move(grad));
    state_ = PlatformState::kAwaitCutGrad;
    return;
  }
  if (kind == MsgKind::kUpdateReject) {
    // The server refused this step's update (validation strike). The step is
    // over: the drawn minibatch is lost, exactly like an unreachable abort.
    const UpdateRejectMsg msg = decode_update_reject_payload(envelope.payload);
    if (obs::FlightRecorder* fr = obs::flight()) {
      fr->note(-1.0, "platform " + std::to_string(id_) + " update rejected (" +
                         reject_reason_name(msg.reason) + ", strikes=" +
                         std::to_string(msg.strikes) + ", now " +
                         member_state_name(msg.state) + ") round=" +
                         std::to_string(envelope.round));
    }
    ++rejected_steps_;
    abort_step();
    return;
  }
  if (kind == MsgKind::kJoinAccept) {
    const JoinAcceptMsg msg = decode_join_accept_payload(envelope.payload);
    if (msg.has_l1) {
      // Cold rejoin: local training state was lost with the crash. Overwrite
      // L1 with the server-held genesis weights and drop momentum — it was
      // accumulated against a trajectory that no longer exists. The size is
      // checked before any value is written.
      const auto params = l1_.parameters();
      const std::int64_t numel = nn::parameter_numel(params);
      if (msg.l1.shape() != Shape{numel}) {
        const std::string reason =
            "platform " + std::to_string(id_) + ": genesis L1 payload " +
            msg.l1.shape().str() + " does not match the local model's " +
            std::to_string(numel) + " values";
        obs::postmortem(reason);
        throw ProtocolError(reason);
      }
      nn::load_values(params, msg.l1);
      opt_.reset_state();
    }
    awaiting_join_ = false;
    last_sent_.reset();
    ++rejoins_completed_;
    return;
  }
  // kCutGrad
  obs::Span span(obs::trace(), "platform.l1_backward", "core");
  span.arg("platform", static_cast<std::uint64_t>(id_));
  span.arg("round", envelope.round);
  const Tensor cut_grad =
      decode_tensor_payload(envelope.payload, options_.codec);
  l1_.zero_grad();
  // dL/dx of the raw images is never sent anywhere: parameters only.
  l1_.backward_params(cut_grad);
  opt_.step();
  ++steps_completed_;
  state_ = PlatformState::kIdle;
  last_sent_.reset();
}

void PlatformNode::send_heartbeat(net::Network& network, std::uint32_t index,
                                  std::uint64_t round) {
  HeartbeatMsg msg;
  msg.platform = index;
  msg.beat = ++beats_sent_;
  msg.last_completed_round = static_cast<std::uint64_t>(steps_completed_);
  Envelope out = make_envelope(id_, server_,
                               static_cast<std::uint32_t>(MsgKind::kHeartbeat),
                               round, encode_heartbeat_payload(msg));
  out.trace.platform = id_;
  out.trace.step = round;
  network.send(std::move(out));
}

void PlatformNode::send_join_request(net::Network& network,
                                     std::uint32_t index, std::uint64_t round,
                                     RejoinMode mode) {
  SPLITMED_CHECK(state_ == PlatformState::kIdle,
                 "platform " << id_ << ": send_join_request while mid-step");
  SPLITMED_CHECK(!awaiting_join_,
                 "platform " << id_ << ": join handshake already in flight");
  JoinRequestMsg msg;
  msg.platform = index;
  msg.mode = mode;
  msg.last_completed_round = static_cast<std::uint64_t>(steps_completed_);
  Envelope out = make_envelope(
      id_, server_, static_cast<std::uint32_t>(MsgKind::kJoinRequest), round,
      encode_join_request_payload(msg));
  out.trace.platform = id_;
  out.trace.step = round;
  if (options_.tolerate_faults) last_sent_ = out;
  network.send(std::move(out));
  awaiting_join_ = true;
  join_round_ = round;
}

void PlatformNode::abort_join() {
  SPLITMED_CHECK(awaiting_join_,
                 "platform " << id_ << ": abort_join without a handshake");
  awaiting_join_ = false;
  last_sent_.reset();
}

void PlatformNode::set_poison(PoisonKind kind, float scale) {
  poison_ = kind;
  poison_scale_ = scale;
}

void PlatformNode::clear_poison() { poison_.reset(); }

void PlatformNode::apply_poison(Tensor& t, bool f32_channel) const {
  if (!poison_) return;
  if (*poison_ == PoisonKind::kNonFinite) {
    if (f32_channel && t.numel() > 0) {
      t.data()[0] = std::numeric_limits<float>::quiet_NaN();
    }
    return;
  }
  for (auto& v : t.data()) v *= poison_scale_;
}

void PlatformNode::save_state(BufferWriter& writer) {
  SPLITMED_CHECK(!awaiting_join_,
                 "platform " << id_
                             << ": checkpoint requires no join handshake in "
                                "flight (round boundary)");
  SPLITMED_CHECK(state_ == PlatformState::kIdle,
                 "platform " << id_
                             << ": checkpoint requires an idle protocol "
                                "state (round boundary)");
  write_parameters(writer, l1_.parameters());
  l1_.save_extra_state(writer);
  opt_.save_state(writer);
  loader_.save_state(writer);
  encode_rng(noise_rng_, writer);
  writer.write_f32(last_loss_);
  writer.write_f64(last_batch_accuracy_);
  writer.write_i64(steps_completed_);
  writer.write_i64(stale_ignored_);
  writer.write_i64(aborted_steps_);
  writer.write_i64(examples_lost_);
  writer.write_u64(beats_sent_);
  writer.write_i64(rejected_steps_);
  writer.write_i64(rejoins_completed_);
}

void PlatformNode::load_state(BufferReader& reader) {
  SPLITMED_CHECK(state_ == PlatformState::kIdle,
                 "platform " << id_ << ": load_state while mid-step");
  read_parameters(reader, l1_.parameters(),
                  "platform " + std::to_string(id_) + " L1");
  l1_.load_extra_state(reader);
  opt_.load_state(reader);
  loader_.load_state(reader);
  decode_rng(reader, noise_rng_);
  last_loss_ = reader.read_f32();
  last_batch_accuracy_ = reader.read_f64();
  steps_completed_ = reader.read_i64();
  stale_ignored_ = reader.read_i64();
  aborted_steps_ = reader.read_i64();
  examples_lost_ = reader.read_i64();
  beats_sent_ = reader.read_u64();
  rejected_steps_ = reader.read_i64();
  rejoins_completed_ = reader.read_i64();
  if (steps_completed_ < 0 || stale_ignored_ < 0 || aborted_steps_ < 0 ||
      examples_lost_ < 0 || rejected_steps_ < 0 || rejoins_completed_ < 0) {
    throw SerializationError("platform " + std::to_string(id_) +
                             ": negative counter in checkpoint");
  }
}

}  // namespace splitmed::core
