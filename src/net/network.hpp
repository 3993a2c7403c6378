// Deterministic simulated network.
//
// Nodes exchange Envelopes over point-to-point links. Each directed link
// serializes transmissions (a second message on the same link waits for the
// first), models bandwidth + latency, and every envelope is byte-accounted in
// TrafficStats. Delivery order per receiving node is by arrival time, with
// send order as the tie-breaker — deterministic for equal inputs.
//
// Arrival indexing: each node's inbox is a binary min-heap ordered by
// (arrival, sequence), and a global indexed min-heap over the inbox heads
// answers "which node receives next" in O(1) (next_event). receive/send are
// O(log n) in the inbox size; the global index holds each non-empty node
// exactly once, so its size is bounded by the node count — no lazy-deletion
// growth. This is what lets an event-driven trainer scale to thousands of
// platforms (the old linear-scanned inboxes made every delivery O(inbox)).
//
// WAN fault injection (extension): a FaultPlan attached per directed link (or
// as the network default) drops, duplicates, delay-spikes, and bit-corrupts
// frames, all driven by a dedicated seeded Rng so faulted runs are exactly
// reproducible. When any plan is active every frame additionally carries a
// CRC-32 trailer (4 accounted bytes); frames whose trailer fails at delivery
// are counted and discarded, never handed to protocol code. With no active
// plan the fault path is never consulted and behaviour is bit-identical to a
// fault-free network.
//
// The transport is in-process and synchronous by design (DESIGN.md decision
// #2): protocol code sees only send()/receive(), so a socket transport could
// replace this class without touching the trainers.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/net/fault.hpp"
#include "src/net/link.hpp"
#include "src/net/sim_clock.hpp"
#include "src/net/traffic_stats.hpp"
#include "src/serial/message.hpp"

namespace splitmed::net {

/// The head of the global arrival index: the earliest in-flight frame across
/// every inbox, identified by its destination node and arrival time.
struct NextEvent {
  double arrival = 0.0;
  NodeId node = 0;
};

class Network {
 public:
  /// Registers a node; ids are dense and start at 0.
  NodeId add_node(std::string name);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::string& node_name(NodeId id) const;

  /// Link used for a directed pair without an explicit override.
  void set_default_link(Link link) { default_link_ = link; }
  /// Overrides the link for both directions between a and b.
  void set_link(NodeId a, NodeId b, Link link);
  [[nodiscard]] const Link& link(NodeId src, NodeId dst) const;

  /// Fault plan used for a directed pair without an explicit override.
  void set_default_fault_plan(FaultPlan plan);
  /// Overrides the fault plan for the directed link src -> dst only (WAN
  /// impairments are frequently asymmetric).
  void set_fault_plan(NodeId src, NodeId dst, FaultPlan plan);
  [[nodiscard]] const FaultPlan& fault_plan(NodeId src, NodeId dst) const;
  /// Seeds the dedicated fault Rng (independent of every training stream).
  void set_fault_seed(std::uint64_t seed) { fault_rng_ = Rng(seed); }
  /// True when any attached plan has a nonzero rate — the switch that turns
  /// on the CRC trailer and its 4-byte-per-frame accounting.
  [[nodiscard]] bool faults_enabled() const { return faults_enabled_; }

  /// Sends an envelope from envelope.src to envelope.dst. The transmission
  /// starts at the current simulated time (or when the link frees up) and is
  /// accounted immediately; link faults are applied here.
  void send(Envelope envelope);

  /// Receives the earliest message addressed to `node`, advancing the clock
  /// to its arrival time: receive_before with no deadline. Throws
  /// ProtocolError if none is in flight — in a synchronous protocol that is
  /// always a bug. Corrupted frames are counted, discarded, and skipped.
  Envelope receive(NodeId node);

  /// Receives the earliest intact message for `node` arriving at or before
  /// `deadline`, advancing the clock to its arrival; returns nullopt when
  /// none qualifies. Corrupted frames arriving in the window are counted and
  /// discarded (the clock does advance past them — the receiver observed
  /// the bad frame). The recovery protocol's timeout primitive.
  std::optional<Envelope> receive_before(NodeId node, double deadline);

  /// Arrival time of the earliest in-flight message for `node` (corrupt or
  /// not), or nullopt when its inbox is empty. O(1) — the inbox head.
  [[nodiscard]] std::optional<double> next_arrival(NodeId node) const;

  /// The globally earliest in-flight frame across every node, or nullopt
  /// when nothing is in flight. O(1) — the head of the arrival index. The
  /// event-driven scheduler's only polling primitive: "who receives next".
  [[nodiscard]] std::optional<NextEvent> next_event() const;

  /// Number of in-flight + queued messages for a node.
  [[nodiscard]] std::size_t pending(NodeId node) const;

  /// Total frames in flight across every inbox (the event-queue depth).
  [[nodiscard]] std::size_t total_in_flight() const {
    return in_flight_count_;
  }

  [[nodiscard]] SimClock& clock() { return clock_; }
  [[nodiscard]] const SimClock& clock() const { return clock_; }
  [[nodiscard]] TrafficStats& stats() { return stats_; }
  [[nodiscard]] const TrafficStats& stats() const { return stats_; }

  /// True when no message is in flight to any node. Fault-free round
  /// boundaries are always quiescent; under fault injection, late duplicates
  /// may straddle a boundary (they are checkpointed, see save_state).
  [[nodiscard]] bool quiescent() const { return in_flight_count_ == 0; }

  /// Serializes the dynamic transport state: clock, send sequence, per-link
  /// busy times, every in-flight frame (fault injection legitimately leaves
  /// late duplicates straddling a round boundary — a resumed run must
  /// deliver exactly what the uninterrupted run would have), the fault Rng,
  /// and TrafficStats. In-flight frames are written in (arrival, sequence)
  /// order, so the byte stream is independent of inbox heap layout.
  /// Topology, links, and fault plans are NOT serialized — they are
  /// reconstructed from config, so a checkpoint cannot smuggle in a
  /// different network.
  void save_state(BufferWriter& writer) const;

  /// Mirror of save_state; requires the same node set and an empty inbox set
  /// on THIS network (the restore target is always freshly built). Throws
  /// SerializationError on malformed input, out-of-range node ids, or
  /// misrouted in-flight frames.
  void load_state(BufferReader& reader);

 private:
  struct InFlight {
    double arrival = 0.0;
    std::uint64_t sequence = 0;  // send order tie-breaker
    Envelope envelope;
  };

  void check_node(NodeId id) const;
  /// Final enqueue of a frame whose transmission window [start, arrival) is
  /// settled: stamps the sideband trace context (fresh flow id, flight
  /// start), emits the flow-start trace event, and pushes the frame. Every
  /// physical frame put in flight — including injected duplicates — passes
  /// through here exactly once; dropped frames never do (no flow, no
  /// orphaned flow-start).
  void put_in_flight(Envelope envelope, double start, double arrival);
  /// Bytes a frame occupies on the wire (adds the CRC trailer when faults
  /// are enabled).
  [[nodiscard]] std::uint64_t bytes_on_wire(const Envelope& envelope) const;
  /// True when the frame's CRC trailer still matches its payload.
  [[nodiscard]] static bool intact(const Envelope& envelope);
  /// Flips 1-4 payload bytes (or the trailer itself for empty payloads).
  void corrupt_in_flight(Envelope& envelope);

  /// Inserts a frame into its destination inbox heap and updates the global
  /// arrival index. O(log inbox + log nodes).
  void inbox_push(InFlight frame);
  /// Pops the earliest frame of `node`'s inbox heap (which must be
  /// non-empty) and updates the global arrival index.
  InFlight inbox_pop(NodeId node);
  /// True when node a's inbox head sorts before node b's (both non-empty).
  [[nodiscard]] bool head_before(NodeId a, NodeId b) const;
  void index_sift_up(std::size_t i);
  void index_sift_down(std::size_t i);
  /// Rebuilds the global arrival index from scratch (after load_state).
  void index_rebuild();

  std::vector<std::string> nodes_;
  Link default_link_{};
  std::map<std::pair<NodeId, NodeId>, Link> links_;
  FaultPlan default_fault_plan_{};
  std::map<std::pair<NodeId, NodeId>, FaultPlan> fault_plans_;
  bool faults_enabled_ = false;
  Rng fault_rng_{0x57A8F001DULL};
  std::map<std::pair<NodeId, NodeId>, double> link_busy_until_;
  /// Per-destination inbox, maintained as a binary min-heap ordered by
  /// (arrival, sequence) — element 0 is the next delivery for that node.
  std::vector<std::vector<InFlight>> inbox_;
  /// Global arrival index: node ids arranged as a binary min-heap keyed by
  /// each node's inbox head; `index_pos_[n]` is n's slot (kNotIndexed when
  /// the inbox is empty). Every non-empty node appears exactly once.
  std::vector<NodeId> index_heap_;
  std::vector<std::size_t> index_pos_;
  std::size_t in_flight_count_ = 0;
  std::uint64_t sequence_ = 0;
  /// Flow-id source for the sideband trace context: incremented for every
  /// frame actually put in flight, a pure function of the send sequence and
  /// the (seeded) fault draws — identical with observability on or off.
  /// NOT serialized (the context is sideband): frames restored from a
  /// checkpoint carry flow id 0 and emit no flow events.
  std::uint64_t flow_next_ = 0;
  SimClock clock_;
  TrafficStats stats_;
};

}  // namespace splitmed::net
