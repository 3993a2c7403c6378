#include "src/net/network.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "src/common/error.hpp"
#include "src/obs/critical_path.hpp"
#include "src/obs/obs.hpp"
#include "src/serial/crc32.hpp"
#include "src/serial/state_codec.hpp"
#include "src/serial/wire_codec.hpp"

namespace splitmed::net {

namespace {

constexpr std::size_t kNotIndexed = std::numeric_limits<std::size_t>::max();

// Sim-time latency buckets: WAN round trips live in the 1ms..5s decade
// range (delay spikes push the tail out to seconds).
const std::vector<double> kSimLatencyBounds{
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0};

/// Per-envelope send span + per-kind counters/latency + flight note.
/// `now` is the sim clock at the send call, `start`/`arrival` the frame's
/// final transmission window (arrival includes any injected delay spike).
void obs_send(const std::vector<std::string>& nodes, const Envelope& e,
              std::uint64_t bytes, double now, double start, double arrival) {
  if (obs::TraceRecorder* tr = obs::trace()) {
    obs::TraceEvent ev;
    ev.ph = 'X';
    ev.name = "net.send";
    ev.cat = "net";
    ev.sim_s = start;
    ev.sim_dur_s = arrival - start;
    ev.args = {obs::arg("kind", obs::kind_name(e.kind)),
               obs::arg("src", std::string_view(nodes[e.src])),
               obs::arg("dst", std::string_view(nodes[e.dst])),
               obs::arg("round", e.round),
               obs::arg("bytes", bytes),
               obs::arg("retransmit", e.retransmit)};
    tr->record(std::move(ev));
  }
  if (obs::MetricsRegistry* m = obs::metrics()) {
    const obs::Labels by_kind{{"kind", obs::kind_name(e.kind)}};
    m->counter("splitmed_net_messages_total",
               "Messages handed to the simulated WAN", by_kind)
        .inc();
    m->counter("splitmed_net_bytes_total",
               "Wire bytes handed to the simulated WAN", by_kind)
        .inc(static_cast<double>(bytes));
    m->counter("splitmed_net_codec_bytes_total",
               "Wire bytes by negotiated payload codec",
               obs::Labels{{"codec", wire_codec_name(e.codec)}})
        .inc(static_cast<double>(bytes));
    m->histogram("splitmed_net_sim_latency_seconds",
                 "Simulated send-to-arrival latency (link queueing + "
                 "serialization + propagation + injected delay spikes)",
                 kSimLatencyBounds,
                 obs::Labels{{"kind", obs::kind_name(e.kind)},
                             {"codec", wire_codec_name(e.codec)}})
        .observe(arrival - now);
  }
  if (obs::FlightRecorder* fr = obs::flight()) {
    fr->note(start, "send " + obs::kind_name(e.kind) + " " + nodes[e.src] +
                        "->" + nodes[e.dst] + " round=" +
                        std::to_string(e.round) + " bytes=" +
                        std::to_string(bytes) +
                        (e.retransmit ? " retransmit" : ""));
  }
}

/// Injected-fault instant event ("drop", "duplicate", "corrupt",
/// "delay_spike") plus the per-type fault counter and a flight note.
void obs_fault(const std::vector<std::string>& nodes, const Envelope& e,
               const char* type, double sim_s) {
  if (obs::TraceRecorder* tr = obs::trace()) {
    obs::TraceEvent ev;
    ev.name = std::string("net.") + type;
    ev.cat = "fault";
    ev.sim_s = sim_s;
    ev.args = {obs::arg("kind", obs::kind_name(e.kind)),
               obs::arg("src", std::string_view(nodes[e.src])),
               obs::arg("dst", std::string_view(nodes[e.dst])),
               obs::arg("round", e.round)};
    tr->record(std::move(ev));
  }
  if (obs::MetricsRegistry* m = obs::metrics()) {
    m->counter("splitmed_net_faults_total", "Injected WAN faults by type",
               {{"type", type}})
        .inc();
  }
  if (obs::FlightRecorder* fr = obs::flight()) {
    fr->note(sim_s, std::string("FAULT ") + type + " " +
                        obs::kind_name(e.kind) + " " + nodes[e.src] + "->" +
                        nodes[e.dst] + " round=" + std::to_string(e.round));
  }
}

/// Flow-start event ('s'): emitted per physical frame put in flight, at the
/// flight's start on the sim clock. The matching flow-finish ('f') fires at
/// delivery (obs_deliver), sharing the frame's sideband flow id — the edge
/// that links the sender's net.send span to the receiver's timeline.
void obs_flow_start(const std::vector<std::string>& nodes, const Envelope& e,
                    double start) {
  if (obs::TraceRecorder* tr = obs::trace()) {
    obs::TraceEvent ev;
    ev.ph = 's';
    ev.name = "net.flow";
    ev.cat = "net";
    ev.sim_s = start;
    ev.flow_id = e.trace.flow_id;
    ev.args = {obs::arg("kind", obs::kind_name(e.kind)),
               obs::arg("src", std::string_view(nodes[e.src])),
               obs::arg("dst", std::string_view(nodes[e.dst])),
               obs::arg("round", e.round),
               obs::arg("attempt",
                        static_cast<std::uint64_t>(e.trace.attempt))};
    tr->record(std::move(ev));
  }
}

/// Delivery instant event + flow-finish + flight note (the moment protocol
/// code gets the frame, or discards it as corrupted).
void obs_deliver(const std::vector<std::string>& nodes, const Envelope& e,
                 double sim_s, bool corrupt_discarded) {
  const char* name = corrupt_discarded ? "net.corrupt_discarded"
                                       : "net.deliver";
  if (obs::TraceRecorder* tr = obs::trace()) {
    obs::TraceEvent ev;
    ev.name = name;
    ev.cat = corrupt_discarded ? "fault" : "net";
    ev.sim_s = sim_s;
    ev.args = {obs::arg("kind", obs::kind_name(e.kind)),
               obs::arg("src", std::string_view(nodes[e.src])),
               obs::arg("dst", std::string_view(nodes[e.dst])),
               obs::arg("round", e.round)};
    tr->record(std::move(ev));
    if (e.trace.flow_id != 0) {
      // A CRC-discarded frame still finishes its flow — the WAN delivered
      // it; the receiver observed and rejected it.
      obs::TraceEvent fin;
      fin.ph = 'f';
      fin.name = "net.flow";
      fin.cat = "net";
      fin.sim_s = sim_s;
      fin.flow_id = e.trace.flow_id;
      tr->record(std::move(fin));
    }
  }
  if (obs::FlightRecorder* fr = obs::flight()) {
    fr->note(sim_s, std::string(corrupt_discarded ? "DISCARD corrupt "
                                                  : "deliver ") +
                        obs::kind_name(e.kind) + " " + nodes[e.src] + "->" +
                        nodes[e.dst] + " round=" + std::to_string(e.round));
  }
  if (corrupt_discarded) {
    if (obs::MetricsRegistry* m = obs::metrics()) {
      m->counter("splitmed_net_corrupt_discarded_total",
                 "Frames discarded at delivery after CRC mismatch")
          .inc();
    }
  }
}

/// Reports a delivery wait [before, after) on frame `e` to the critical-path
/// analyzer: the receiver's clock moved because this frame gated it.
void obs_wait(obs::CriticalPathAnalyzer* cp, double before, double after,
              const Envelope& e, bool corrupt_discarded) {
  obs::MsgWait wait;
  wait.from = before;
  wait.to = after;
  wait.sent_sim = e.trace.sent_sim;
  wait.src = e.src;
  wait.dst = e.dst;
  wait.kind = e.kind;
  wait.step = e.trace.step;
  wait.attempt = e.trace.attempt;
  wait.retransmit = e.retransmit;
  wait.corrupt_discarded = corrupt_discarded;
  cp->observe_wait(wait);
}

/// (arrival, sequence) total order — sequences are unique, so no two frames
/// ever compare equal and every heap has a single well-defined head.
bool frame_before(double arrival_a, std::uint64_t seq_a, double arrival_b,
                  std::uint64_t seq_b) {
  return arrival_a != arrival_b ? arrival_a < arrival_b : seq_a < seq_b;
}

/// The inbox heaps' comparator: std::make_heap/push_heap/pop_heap keep a
/// max-heap under their comparator, so inverting frame_before puts the
/// (arrival, sequence) minimum at the front.
constexpr auto arrives_later = [](const auto& a, const auto& b) {
  return frame_before(b.arrival, b.sequence, a.arrival, a.sequence);
};

}  // namespace

NodeId Network::add_node(std::string name) {
  nodes_.push_back(std::move(name));
  inbox_.emplace_back();
  index_pos_.push_back(kNotIndexed);
  return static_cast<NodeId>(nodes_.size() - 1);
}

const std::string& Network::node_name(NodeId id) const {
  check_node(id);
  return nodes_[id];
}

void Network::check_node(NodeId id) const {
  SPLITMED_CHECK(id < nodes_.size(), "unknown node id " << id);
}

void Network::set_link(NodeId a, NodeId b, Link link) {
  check_node(a);
  check_node(b);
  SPLITMED_CHECK(a != b, "cannot set a self-link");
  links_[{a, b}] = link;
  links_[{b, a}] = link;
}

const Link& Network::link(NodeId src, NodeId dst) const {
  const auto it = links_.find({src, dst});
  return it == links_.end() ? default_link_ : it->second;
}

void Network::set_default_fault_plan(FaultPlan plan) {
  plan.validate();
  default_fault_plan_ = plan;
  faults_enabled_ = faults_enabled_ || plan.any();
}

void Network::set_fault_plan(NodeId src, NodeId dst, FaultPlan plan) {
  check_node(src);
  check_node(dst);
  SPLITMED_CHECK(src != dst, "cannot set a self-link fault plan");
  plan.validate();
  fault_plans_[{src, dst}] = plan;
  faults_enabled_ = faults_enabled_ || plan.any();
}

const FaultPlan& Network::fault_plan(NodeId src, NodeId dst) const {
  const auto it = fault_plans_.find({src, dst});
  return it == fault_plans_.end() ? default_fault_plan_ : it->second;
}

std::uint64_t Network::bytes_on_wire(const Envelope& envelope) const {
  return envelope.wire_bytes() +
         (faults_enabled_ ? Envelope::kCrcTrailerBytes : 0);
}

bool Network::intact(const Envelope& envelope) {
  return envelope.crc == crc32({envelope.payload.data(),
                                envelope.payload.size()});
}

void Network::corrupt_in_flight(Envelope& envelope) {
  if (envelope.payload.empty()) {
    envelope.crc ^= 1U + static_cast<std::uint32_t>(fault_rng_.uniform_u64(
                             0xFFFFFFFFULL));
    return;
  }
  const int flips = 1 + static_cast<int>(fault_rng_.uniform_u64(4));
  for (int f = 0; f < flips; ++f) {
    const std::size_t at = static_cast<std::size_t>(
        fault_rng_.uniform_u64(envelope.payload.size()));
    envelope.payload[at] ^=
        static_cast<std::uint8_t>(1 + fault_rng_.uniform_u64(255));
  }
}

// ---------------------------------------------------------------------------
// Arrival index maintenance. Inboxes are binary min-heaps; the global index
// is a second min-heap of node ids keyed by each inbox head, with a position
// table so a node's key change is a single O(log nodes) sift rather than a
// rebuild.

bool Network::head_before(NodeId a, NodeId b) const {
  const InFlight& fa = inbox_[a].front();
  const InFlight& fb = inbox_[b].front();
  return frame_before(fa.arrival, fa.sequence, fb.arrival, fb.sequence);
}

void Network::index_sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!head_before(index_heap_[i], index_heap_[parent])) break;
    std::swap(index_heap_[i], index_heap_[parent]);
    index_pos_[index_heap_[i]] = i;
    index_pos_[index_heap_[parent]] = parent;
    i = parent;
  }
}

void Network::index_sift_down(std::size_t i) {
  const std::size_t n = index_heap_.size();
  while (true) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    std::size_t best = left;
    const std::size_t right = left + 1;
    if (right < n && head_before(index_heap_[right], index_heap_[left])) {
      best = right;
    }
    if (!head_before(index_heap_[best], index_heap_[i])) break;
    std::swap(index_heap_[i], index_heap_[best]);
    index_pos_[index_heap_[i]] = i;
    index_pos_[index_heap_[best]] = best;
    i = best;
  }
}

void Network::inbox_push(InFlight frame) {
  const NodeId node = frame.envelope.dst;
  auto& box = inbox_[node];
  box.push_back(std::move(frame));
  std::push_heap(box.begin(), box.end(), arrives_later);
  ++in_flight_count_;
  if (index_pos_[node] == kNotIndexed) {
    index_heap_.push_back(node);
    index_pos_[node] = index_heap_.size() - 1;
  }
  // A push can only move the inbox head earlier — the node's key decreases
  // or stays — so sifting the node up restores the index.
  index_sift_up(index_pos_[node]);
}

Network::InFlight Network::inbox_pop(NodeId node) {
  auto& box = inbox_[node];
  SPLITMED_ASSERT(!box.empty(), "inbox_pop on an empty inbox");
  std::pop_heap(box.begin(), box.end(), arrives_later);
  InFlight out = std::move(box.back());
  box.pop_back();
  --in_flight_count_;
  const std::size_t pos = index_pos_[node];
  if (box.empty()) {
    // Remove the node from the index: swap with the last slot and re-sift
    // the displaced node (its key is unchanged but its position moved).
    const NodeId moved = index_heap_.back();
    index_heap_.pop_back();
    index_pos_[node] = kNotIndexed;
    if (moved != node) {
      index_heap_[pos] = moved;
      index_pos_[moved] = pos;
      index_sift_up(pos);
      index_sift_down(index_pos_[moved]);
    }
  } else {
    // The inbox head changed to a later frame — the node's key increased.
    index_sift_down(pos);
  }
  return out;
}

void Network::index_rebuild() {
  index_heap_.clear();
  std::fill(index_pos_.begin(), index_pos_.end(), kNotIndexed);
  in_flight_count_ = 0;
  for (NodeId node = 0; node < inbox_.size(); ++node) {
    auto& box = inbox_[node];
    if (box.empty()) continue;
    in_flight_count_ += box.size();
    std::make_heap(box.begin(), box.end(), arrives_later);
    index_heap_.push_back(node);
    index_pos_[node] = index_heap_.size() - 1;
    index_sift_up(index_pos_[node]);
  }
}

// ---------------------------------------------------------------------------

void Network::put_in_flight(Envelope envelope, double start, double arrival) {
  envelope.trace.flow_id = ++flow_next_;
  envelope.trace.sent_sim = start;
  obs_flow_start(nodes_, envelope, start);
  inbox_push(InFlight{arrival, sequence_++, std::move(envelope)});
}

void Network::send(Envelope envelope) {
  check_node(envelope.src);
  check_node(envelope.dst);
  SPLITMED_CHECK(envelope.src != envelope.dst,
                 "node " << envelope.src << " sending to itself");
  const Link& l = link(envelope.src, envelope.dst);
  const std::uint64_t bytes = bytes_on_wire(envelope);

  // The link serializes transmissions: start when it frees up.
  double& busy_until = link_busy_until_[{envelope.src, envelope.dst}];
  const double now = clock_.now();
  const double start = std::max(now, busy_until);
  const double serialization = l.serialization_time(bytes);
  busy_until = start + serialization;
  double arrival = busy_until + l.latency_sec;

  stats_.record(envelope, bytes);
  if (envelope.retransmit) stats_.record_retransmit(bytes);

  if (!faults_enabled_) {
    obs_send(nodes_, envelope, bytes, now, start, arrival);
    put_in_flight(std::move(envelope), start, arrival);
    return;
  }

  envelope.crc = crc32({envelope.payload.data(), envelope.payload.size()});
  const FaultPlan& plan = fault_plan(envelope.src, envelope.dst);
  bool drop = false;
  bool duplicate = false;
  if (plan.any()) {
    // Fixed draw order keeps the fault stream a pure function of the seed
    // and the send sequence.
    bool spiked = false;
    if (plan.delay_spike_rate > 0.0 &&
        fault_rng_.bernoulli(static_cast<float>(plan.delay_spike_rate))) {
      arrival += plan.delay_spike_sec;
      spiked = true;
    }
    duplicate = plan.duplicate_rate > 0.0 &&
                fault_rng_.bernoulli(static_cast<float>(plan.duplicate_rate));
    drop = plan.drop_rate > 0.0 &&
           fault_rng_.bernoulli(static_cast<float>(plan.drop_rate));
    const bool corrupt =
        plan.corrupt_rate > 0.0 &&
        fault_rng_.bernoulli(static_cast<float>(plan.corrupt_rate));

    obs_send(nodes_, envelope, bytes, now, start, arrival);
    if (spiked) obs_fault(nodes_, envelope, "delay_spike", start);

    if (duplicate) {
      // The extra copy re-serializes on the link right behind the original
      // (taken before any corruption — it is an independent transmission).
      Envelope copy = envelope;
      const double copy_start = busy_until;
      busy_until += serialization;
      const double copy_arrival = busy_until + l.latency_sec;
      stats_.record(copy, bytes);
      stats_.record_duplicate(bytes);
      obs_fault(nodes_, envelope, "duplicate", start);
      obs_send(nodes_, copy, bytes, now, copy_start, copy_arrival);
      if (drop) {
        stats_.record_dropped(bytes);
        obs_fault(nodes_, envelope, "drop", start);
      } else {
        if (corrupt) {
          corrupt_in_flight(envelope);
          obs_fault(nodes_, envelope, "corrupt", start);
        }
      }
      if (!drop) {
        put_in_flight(std::move(envelope), start, arrival);
      }
      put_in_flight(std::move(copy), copy_start, copy_arrival);
      return;
    }
    if (drop) {
      stats_.record_dropped(bytes);
      obs_fault(nodes_, envelope, "drop", start);
      return;
    }
    if (corrupt) {
      corrupt_in_flight(envelope);
      obs_fault(nodes_, envelope, "corrupt", start);
    }
  } else {
    obs_send(nodes_, envelope, bytes, now, start, arrival);
  }
  put_in_flight(std::move(envelope), start, arrival);
}

Envelope Network::receive(NodeId node) {
  std::optional<Envelope> out =
      receive_before(node, std::numeric_limits<double>::infinity());
  if (!out) {
    const std::string reason = "receive on node '" + nodes_[node] +
                               "' with no message in flight";
    obs::postmortem(reason);
    throw ProtocolError(reason);
  }
  return std::move(*out);
}

std::optional<Envelope> Network::receive_before(NodeId node, double deadline) {
  check_node(node);
  while (true) {
    const auto& box = inbox_[node];
    if (box.empty() || box.front().arrival > deadline) {
      return std::nullopt;
    }
    obs::CriticalPathAnalyzer* cp = obs::attribution();
    const double before = cp != nullptr ? clock_.now() : 0.0;
    InFlight f = inbox_pop(node);
    clock_.advance_to(f.arrival);
    Envelope out = std::move(f.envelope);
    if (!faults_enabled_ || intact(out)) {
      if (cp != nullptr) {
        obs_wait(cp, before, clock_.now(), out, /*corrupt_discarded=*/false);
      }
      obs_deliver(nodes_, out, clock_.now(), /*corrupt_discarded=*/false);
      return out;
    }
    stats_.record_corrupted(bytes_on_wire(out));
    if (cp != nullptr) {
      obs_wait(cp, before, clock_.now(), out, /*corrupt_discarded=*/true);
    }
    obs_deliver(nodes_, out, clock_.now(), /*corrupt_discarded=*/true);
  }
}

std::optional<double> Network::next_arrival(NodeId node) const {
  check_node(node);
  const auto& box = inbox_[node];
  if (box.empty()) return std::nullopt;
  return box.front().arrival;
}

std::optional<NextEvent> Network::next_event() const {
  if (index_heap_.empty()) return std::nullopt;
  const NodeId node = index_heap_.front();
  return NextEvent{inbox_[node].front().arrival, node};
}

std::size_t Network::pending(NodeId node) const {
  SPLITMED_CHECK(node < nodes_.size(), "unknown node id " << node);
  return inbox_[node].size();
}

void Network::save_state(BufferWriter& writer) const {
  writer.write_u32(static_cast<std::uint32_t>(nodes_.size()));
  writer.write_f64(clock_.now());
  writer.write_u64(sequence_);
  writer.write_u32(static_cast<std::uint32_t>(link_busy_until_.size()));
  for (const auto& [pair, busy_until] : link_busy_until_) {
    writer.write_u32(pair.first);
    writer.write_u32(pair.second);
    writer.write_f64(busy_until);
  }
  // In-flight frames, per destination inbox, in (arrival, sequence) order —
  // deterministic regardless of the heap's internal array layout. Fault-free
  // round boundaries are quiescent and write zero entries; under WAN fault
  // injection, late duplicates and post-timeout replies legitimately
  // straddle the boundary and MUST travel with the checkpoint — the resumed
  // run has to deliver (and ignore) exactly the frames the uninterrupted run
  // would have.
  for (const auto& box : inbox_) {
    writer.write_u32(static_cast<std::uint32_t>(box.size()));
    std::vector<const InFlight*> ordered;
    ordered.reserve(box.size());
    for (const InFlight& f : box) ordered.push_back(&f);
    std::sort(ordered.begin(), ordered.end(),
              [](const InFlight* a, const InFlight* b) {
                return frame_before(a->arrival, a->sequence, b->arrival,
                                    b->sequence);
              });
    for (const InFlight* f : ordered) {
      writer.write_f64(f->arrival);
      writer.write_u64(f->sequence);
      encode_envelope(f->envelope, writer);
    }
  }
  encode_rng(fault_rng_, writer);
  stats_.save_state(writer);
}

void Network::load_state(BufferReader& reader) {
  SPLITMED_CHECK(quiescent(),
                 "Network::load_state requires an empty network");
  const std::uint32_t node_count = reader.read_u32();
  if (node_count != nodes_.size()) {
    throw SerializationError("Network state: checkpoint has " +
                             std::to_string(node_count) + " nodes, network " +
                             "has " + std::to_string(nodes_.size()));
  }
  const double now = reader.read_f64();
  if (!(now >= 0.0)) {  // also rejects NaN
    throw SerializationError("Network state: invalid clock time");
  }
  const std::uint64_t sequence = reader.read_u64();
  const std::uint32_t n_busy = reader.read_u32();
  std::map<std::pair<NodeId, NodeId>, double> busy;
  for (std::uint32_t i = 0; i < n_busy; ++i) {
    const NodeId src = reader.read_u32();
    const NodeId dst = reader.read_u32();
    if (src >= nodes_.size() || dst >= nodes_.size()) {
      throw SerializationError("Network state: busy-link node id out of "
                               "range");
    }
    busy[{src, dst}] = reader.read_f64();
  }
  std::vector<std::vector<InFlight>> inbox(nodes_.size());
  constexpr std::uint32_t kMaxInFlight = 1U << 20;
  // The smallest encoded frame: arrival 8 + sequence 8 + an envelope with an
  // empty payload 34. A count the rest of the state cannot hold would
  // otherwise size the reserve below (2^20 frames is about 126 MB).
  constexpr std::size_t kMinFrameBytes = 50;
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    const std::uint32_t n_flight = reader.read_u32();
    if (n_flight > kMaxInFlight) {
      throw SerializationError("Network state: absurd in-flight count " +
                               std::to_string(n_flight));
    }
    if (n_flight > reader.remaining() / kMinFrameBytes) {
      throw SerializationError("Network state: " + std::to_string(n_flight) +
                               " in-flight frames in " +
                               std::to_string(reader.remaining()) + " bytes");
    }
    inbox[node].reserve(n_flight);
    for (std::uint32_t i = 0; i < n_flight; ++i) {
      InFlight f;
      f.arrival = reader.read_f64();
      if (!(f.arrival >= 0.0)) {  // also rejects NaN
        throw SerializationError("Network state: invalid arrival time");
      }
      f.sequence = reader.read_u64();
      f.envelope = decode_envelope(reader);
      if (f.envelope.dst != node || f.envelope.src >= nodes_.size()) {
        throw SerializationError(
            "Network state: in-flight frame routed to the wrong inbox");
      }
      inbox[node].push_back(std::move(f));
    }
  }
  Rng fault_rng = fault_rng_;
  decode_rng(reader, fault_rng);
  TrafficStats stats;
  stats.load_state(reader);
  clock_.reset();
  clock_.advance_to(now);
  sequence_ = sequence;
  link_busy_until_ = std::move(busy);
  inbox_ = std::move(inbox);
  index_rebuild();
  fault_rng_ = fault_rng;
  stats_ = std::move(stats);
}

}  // namespace splitmed::net
