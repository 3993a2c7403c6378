#include "src/core/scheduler.hpp"

#include <limits>
#include <string>

#include "src/common/error.hpp"
#include "src/common/logging.hpp"
#include "src/obs/critical_path.hpp"
#include "src/obs/obs.hpp"

namespace splitmed::core {

namespace {
constexpr std::size_t kNoPlatform = std::numeric_limits<std::size_t>::max();
constexpr double kNever = std::numeric_limits<double>::infinity();
}  // namespace

EventScheduler::EventScheduler(
    net::Network& network, CentralServer& server,
    const std::vector<std::unique_ptr<PlatformNode>>& platforms,
    std::optional<net::RetryPolicy> recovery)
    : network_(network),
      server_(server),
      platforms_(platforms),
      recovery_(recovery) {
  node_to_platform_.assign(network.node_count(), kNoPlatform);
  for (std::size_t p = 0; p < platforms_.size(); ++p) {
    const NodeId node = platforms_[p]->id();
    SPLITMED_CHECK(node < node_to_platform_.size(),
                   "platform node id " << node << " outside the network");
    node_to_platform_[node] = p;
  }
  in_flight_.assign(platforms_.size(), std::nullopt);
}

void EventScheduler::sample_queue_depth() const {
  if (obs::Gauge* g = obs::event_queue_depth_gauge()) {
    g->set(static_cast<double>(network_.total_in_flight()));
  }
}

void EventScheduler::begin_step(std::size_t platform, std::uint64_t step_id,
                                std::int64_t round) {
  SPLITMED_CHECK(platform < platforms_.size(), "platform index out of range");
  SPLITMED_ASSERT(!in_flight_[platform],
                  "platform " << platform << " already has a step in flight");
  const std::int64_t before = platforms_[platform]->steps_completed();
  platforms_[platform]->send_activation(network_, step_id);
  in_flight_[platform] = InFlightStep{step_id, round, before};
  ++inflight_by_round_[round];
  ++steps_in_flight_;
}

bool EventScheduler::end_step(std::size_t platform) {
  SPLITMED_ASSERT(in_flight_[platform], "step end for an untracked step");
  const auto round_it =
      inflight_by_round_.find(in_flight_[platform]->start_round);
  SPLITMED_ASSERT(round_it != inflight_by_round_.end(),
                  "in-flight round accounting out of sync");
  if (--round_it->second == 0) inflight_by_round_.erase(round_it);
  const bool completed = platforms_[platform]->steps_completed() >
                         in_flight_[platform]->steps_before;
  in_flight_[platform].reset();
  --steps_in_flight_;
  return completed;
}

bool EventScheduler::frame_due(double deadline) const {
  const auto event = network_.next_event();
  return event && event->arrival <= deadline;
}

std::optional<std::size_t> EventScheduler::deliver_next(double deadline) {
  const auto event = network_.next_event();
  SPLITMED_ASSERT(event && event->arrival <= deadline,
                  "deliver_next with no frame due");
  const auto envelope = network_.receive_before(event->node, deadline);
  std::optional<std::size_t> completed;
  // nullopt: the window held only corrupted frames (discarded and counted).
  if (envelope && envelope->dst == server_.id()) {
    server_.handle(network_, *envelope);
  } else if (envelope) {
    const std::size_t p = node_to_platform_[envelope->dst];
    SPLITMED_ASSERT(p != kNoPlatform,
                    "frame addressed to unknown node " << envelope->dst);
    PlatformNode& platform = *platforms_[p];
    const bool mid_step = platform.state() != PlatformState::kIdle;
    platform.handle(network_, *envelope);
    // A step ends when its platform returns to idle during a delivery to
    // it: on the cut gradient, or on a kUpdateReject. A stray duplicate
    // reaching an idle platform ends nothing.
    if (mid_step && platform.state() == PlatformState::kIdle &&
        end_step(p)) {
      completed = p;
    }
  }
  sample_queue_depth();
  return completed;
}

bool EventScheduler::await(std::size_t platform,
                           FunctionRef<bool()> waiting) {
  PlatformNode& node = *platforms_[platform];
  // Fault-free, the one window never closes: every exchange always has a
  // frame moving.
  double timeout = recovery_ ? recovery_->timeout_sec : kNever;
  for (int attempt = 0;; ++attempt) {
    const double deadline = network_.clock().now() + timeout;
    // Frames for other platforms are late replies to completed or abandoned
    // exchanges — their state machines count and ignore them. A frame due
    // after the deadline stays queued.
    while (waiting() && frame_due(deadline)) deliver_next(deadline);
    if (!waiting()) return true;
    SPLITMED_ASSERT(recovery_, "platform " << node.id()
                                           << " waits with nothing in flight "
                                              "on a fault-free WAN");
    if (obs::CriticalPathAnalyzer* cp = obs::attribution()) {
      // Waiting out the rest of the timeout window is pure recovery
      // overhead, owned by the unresponsive platform.
      cp->note_timeout_wait(network_.clock().now(), deadline, node.id());
    }
    network_.clock().advance_to(deadline);
    if (attempt == recovery_->max_retries) break;
    if (obs::TraceRecorder* tr = obs::trace()) {
      tr->instant("trainer.timeout", "fault",
                  {obs::arg("platform", static_cast<std::uint64_t>(node.id())),
                   obs::arg("attempt",
                            static_cast<std::uint64_t>(attempt + 1))});
    }
    if (obs::FlightRecorder* fr = obs::flight()) {
      fr->note(network_.clock().now(),
               "TIMEOUT platform " + std::to_string(node.id()) + " attempt " +
                   std::to_string(attempt + 1) + " — retransmitting");
    }
    node.resend_last(network_);
    timeout *= recovery_->backoff;
  }
  if (obs::FlightRecorder* fr = obs::flight()) {
    const std::string what =
        busy(platform) ? "step " + std::to_string(in_flight_[platform]->step_id)
                       : std::string("join");
    fr->note(network_.clock().now(),
             "ABANDON " + what + ": platform " + std::to_string(node.id()) +
                 " unreachable, retries exhausted");
  }
  return false;
}

StepOutcome EventScheduler::run_step(std::size_t platform,
                                     std::uint64_t step_id,
                                     std::int64_t round) {
  PlatformNode& node = *platforms_[platform];
  obs::Span span(obs::trace(), "trainer.step", "trainer");
  span.arg("platform", static_cast<std::uint64_t>(node.id()));
  span.arg("step", step_id);
  const std::int64_t before = node.steps_completed();
  // Under faults, no request older than this step may start training.
  if (recovery_) server_.expect_round(step_id);
  begin_step(platform, step_id, round);
  // Stage 1 waits in kAwaitLogits, stage 2 in kAwaitCutGrad.
  while (busy(platform)) {
    const PlatformState stage = node.state();
    if (!await(platform, [&] { return node.state() == stage; })) {
      SPLITMED_LOG(kWarn) << "platform " << node.id()
                          << " unreachable in round " << step_id
                          << " — skipping its step";
      span.arg("abandoned", true);
      node.abort_step();
      server_.abort_pending(node.id());
      end_step(platform);
      return StepOutcome::kUnreachable;
    }
  }
  if (node.steps_completed() > before) return StepOutcome::kCompleted;
  span.arg("rejected", true);
  return StepOutcome::kRejected;
}

bool EventScheduler::run_join(std::size_t platform, std::uint64_t round,
                              RejoinMode mode) {
  PlatformNode& node = *platforms_[platform];
  node.send_join_request(network_, static_cast<std::uint32_t>(platform),
                         round, mode);
  if (await(platform, [&] { return node.awaiting_join(); })) return true;
  node.abort_join();
  return false;
}

void EventScheduler::settle() {
  while (frame_due(kNever)) deliver_next(kNever);
}

void EventScheduler::drain(std::int64_t horizon,
                           std::vector<std::size_t>& completed) {
  const std::size_t entry_count = completed.size();
  while (steps_in_flight_ > 0 &&
         (inflight_by_round_.begin()->first <= horizon ||
          completed.size() == entry_count)) {
    if (const auto done = deliver_next(kNever)) completed.push_back(*done);
  }
}

}  // namespace splitmed::core
