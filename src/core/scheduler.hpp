// EventScheduler — the round engine: the only code that delivers protocol
// frames during a round.
//
// Every schedule drives the per-platform protocol state machines off the
// network's global arrival index (Network::next_event()): each delivery
// hands exactly the globally earliest in-flight frame to its destination
// node, so a delivery is O(log n) and a round costs O(active events), not
// O(platforms) per tick.
//
// * Sequential (the paper's Fig. 3 workflow) is "at most one step in
//   flight" (run_step). With one step in flight exactly one frame is in
//   flight, so global-earliest delivery is the activation -> logits ->
//   logit grad -> cut grad exchange, in that order.
// * Bounded staleness keeps many steps in flight (begin_step + drain); at
//   staleness bound 0 every round drains fully (the overlapped schedule).
// * Under WAN fault injection, steps and membership join handshakes wait
//   through one timeout loop: a fresh window per protocol stage,
//   retransmission with exponential backoff, and abandonment after
//   recovery.max_retries. Fault-free, the loop sets no timeouts.
//
// Determinism: the only ordering source is the network's (arrival time, send
// sequence) total order, which is itself a pure function of the
// configuration. Two runs of the same config execute the identical event
// sequence; thread count, observability, and ISA never enter the ordering.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/function_ref.hpp"
#include "src/core/platform.hpp"
#include "src/core/server.hpp"
#include "src/net/fault.hpp"
#include "src/net/network.hpp"

namespace splitmed::core {

/// How one sequential protocol step ended.
enum class StepOutcome {
  kCompleted,    ///< optimizer stepped on both sides
  kRejected,     ///< the server refused the update (kUpdateReject)
  kUnreachable,  ///< retransmissions exhausted, step abandoned
};

class EventScheduler {
 public:
  /// Holds references only — the trainer owns the nodes. `platforms` must be
  /// fully populated before construction. `recovery` is the timeout /
  /// retransmission policy under WAN fault injection; nullopt (fault-free)
  /// sets no timeouts.
  EventScheduler(net::Network& network, CentralServer& server,
                 const std::vector<std::unique_ptr<PlatformNode>>& platforms,
                 std::optional<net::RetryPolicy> recovery);

  /// Sequential schedule: runs platform `platform`'s whole protocol step
  /// with no other step in flight. Each stage (logits back, cut gradient
  /// back) waits in its own timeout window; a kUpdateReject ends the step
  /// at either stage.
  StepOutcome run_step(std::size_t platform, std::uint64_t step_id,
                       std::int64_t round);

  /// Membership rejoin handshake (kJoinRequest -> kJoinAccept) for
  /// `platform`, through the same wait loop as a step. False = retries
  /// exhausted: the handshake was abandoned and is retried next round.
  bool run_join(std::size_t platform, std::uint64_t round, RejoinMode mode);

  /// Delivers every frame in flight (heartbeat batches; under fault
  /// injection also late strays, which the state machines absorb).
  void settle();

  /// Starts a protocol step for an idle platform: ships its activation and
  /// tracks the step as in flight, tagged with the round it started in.
  void begin_step(std::size_t platform, std::uint64_t step_id,
                  std::int64_t round);

  /// True while the platform's step is in flight (a straggler at a round
  /// boundary under bounded staleness).
  [[nodiscard]] bool busy(std::size_t platform) const {
    return in_flight_[platform].has_value();
  }

  /// Delivers frames until every step with start_round <= `horizon` has
  /// ended AND at least one step completed during this call (liveness:
  /// every round folds in work, however stale) — or no step is left in
  /// flight. Completed platform indices are appended to `completed` in
  /// completion order. With horizon >= the newest start round this is a
  /// full drain barrier (staleness bound 0, checkpoint boundaries, the
  /// final round).
  void drain(std::int64_t horizon, std::vector<std::size_t>& completed);

 private:
  struct InFlightStep {
    std::uint64_t step_id = 0;
    std::int64_t start_round = 0;
    /// The platform's steps_completed() when the step began.
    std::int64_t steps_before = 0;
  };

  /// True when the globally earliest in-flight frame arrives by `deadline`.
  [[nodiscard]] bool frame_due(double deadline) const;
  /// Delivers the globally earliest in-flight frame (which must be due by
  /// `deadline`) to its node's state machine. Returns the platform index
  /// when that delivery completed the platform's step.
  std::optional<std::size_t> deliver_next(double deadline);
  /// Stops tracking `platform`'s step; true when it completed (the
  /// platform's steps_completed() grew).
  bool end_step(std::size_t platform);
  /// Delivers frames while `waiting()` holds. Under fault injection each
  /// call is one stage: on a timeout it retransmits the platform's last
  /// frame with backoff, and after recovery.max_retries it gives up and
  /// returns false (the caller abandons the step or handshake).
  bool await(std::size_t platform, FunctionRef<bool()> waiting);

  /// Publishes the current in-flight frame count to the pre-registered
  /// splitmed_event_queue_depth gauge. One atomic load when observability is
  /// off; called after every delivery so the gauge tracks the scheduler's
  /// actual delivery cadence, not just round boundaries.
  void sample_queue_depth() const;

  net::Network& network_;
  CentralServer& server_;
  const std::vector<std::unique_ptr<PlatformNode>>& platforms_;
  std::optional<net::RetryPolicy> recovery_;
  /// Dense node id -> platform index (kNoPlatform for the server).
  std::vector<std::size_t> node_to_platform_;
  std::vector<std::optional<InFlightStep>> in_flight_;
  /// start_round -> number of in-flight steps begun that round; the head is
  /// the oldest outstanding round, so the staleness predicate is O(1).
  std::map<std::int64_t, std::size_t> inflight_by_round_;
  std::size_t steps_in_flight_ = 0;
};

}  // namespace splitmed::core
