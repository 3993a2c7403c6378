// Tests for net/: link timing, network delivery semantics, traffic stats,
// topology presets.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/net/network.hpp"
#include "src/net/topology.hpp"

namespace splitmed {
namespace {

Envelope env(NodeId src, NodeId dst, std::uint32_t kind, std::size_t bytes) {
  return make_envelope(src, dst, kind, 0,
                       std::vector<std::uint8_t>(bytes, 0));
}

TEST(Link, TransferTimeLatencyPlusSerialization) {
  const net::Link l{1000.0, 0.5};  // 1000 B/s, 500ms latency
  EXPECT_DOUBLE_EQ(l.transfer_time(2000), 0.5 + 2.0);
  EXPECT_DOUBLE_EQ(l.transfer_time(0), 0.5);
}

TEST(Link, UnitConstructors) {
  const net::Link m = net::Link::mbps(8.0, 10.0);  // 8 Mbit/s = 1e6 B/s
  EXPECT_DOUBLE_EQ(m.bandwidth_bytes_per_sec, 1e6);
  EXPECT_DOUBLE_EQ(m.latency_sec, 0.01);
  const net::Link g = net::Link::gbps(1.0, 5.0);
  EXPECT_DOUBLE_EQ(g.bandwidth_bytes_per_sec, 1.25e8);
}

TEST(SimClock, OnlyMovesForward) {
  net::SimClock clock;
  clock.advance_to(5.0);
  clock.advance_to(3.0);
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
}

TEST(Network, DeliversAndAdvancesClock) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.set_link(a, b, net::Link{100.0, 1.0});  // 100 B/s, 1s latency
  network.send(env(a, b, 7, 72));  // 72 + 28 header = 100 bytes -> 1s + 1s
  const Envelope received = network.receive(b);
  EXPECT_EQ(received.kind, 7U);
  EXPECT_DOUBLE_EQ(network.clock().now(), 2.0);
}

TEST(Network, LinkSerializesBackToBackSends) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.set_link(a, b, net::Link{100.0, 0.0});
  network.send(env(a, b, 1, 72));  // 100 B -> occupies [0, 1]
  network.send(env(a, b, 2, 72));  // waits -> arrives at 2
  network.receive(b);
  EXPECT_DOUBLE_EQ(network.clock().now(), 1.0);
  network.receive(b);
  EXPECT_DOUBLE_EQ(network.clock().now(), 2.0);
}

TEST(Network, OppositeDirectionsDoNotSerialize) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.set_link(a, b, net::Link{100.0, 0.0});
  network.send(env(a, b, 1, 72));
  network.send(env(b, a, 2, 72));
  network.receive(b);
  network.receive(a);
  EXPECT_DOUBLE_EQ(network.clock().now(), 1.0);  // both finished at t=1
}

TEST(Network, DeliveryOrderByArrivalThenSendOrder) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const NodeId c = network.add_node("c");
  network.set_link(a, c, net::Link{1000.0, 1.0});  // slow path (latency)
  network.set_link(b, c, net::Link{1000.0, 0.0});  // fast path
  network.send(env(a, c, 1, 0));  // arrives ~1.028
  network.send(env(b, c, 2, 0));  // arrives ~0.028
  EXPECT_EQ(network.receive(c).kind, 2U);
  EXPECT_EQ(network.receive(c).kind, 1U);
}

TEST(Network, ReceiveWithNothingInFlightThrows) {
  net::Network network;
  const NodeId a = network.add_node("a");
  EXPECT_THROW(network.receive(a), ProtocolError);
}

TEST(Network, TryReceiveRespectsArrivalTime) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.set_link(a, b, net::Link{1.0, 0.0});  // 1 B/s: 28B header = 28s
  network.send(env(a, b, 1, 0));
  // clock still at 0
  EXPECT_FALSE(network.receive_before(b, network.clock().now()).has_value());
  network.clock().advance_to(30.0);
  EXPECT_TRUE(network.receive_before(b, network.clock().now()).has_value());
}

TEST(Network, TryReceiveBeforeArrivalDoesNotConsume) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.set_link(a, b, net::Link{1.0, 0.0});  // 28B header = 28s
  network.send(env(a, b, 1, 0));
  // Early polls neither deliver nor drop the in-flight frame.
  EXPECT_FALSE(network.receive_before(b, network.clock().now()).has_value());
  EXPECT_FALSE(network.receive_before(b, network.clock().now()).has_value());
  EXPECT_EQ(network.pending(b), 1U);
  EXPECT_DOUBLE_EQ(network.clock().now(), 0.0);  // polling never advances time
  network.clock().advance_to(30.0);
  EXPECT_TRUE(network.receive_before(b, network.clock().now()).has_value());
  EXPECT_EQ(network.pending(b), 0U);
}

TEST(Network, EqualArrivalsTieBreakBySendOrder) {
  // Two frames from different senders arriving at the exact same instant
  // must deliver in send order — the determinism guarantee delivery relies
  // on when arrival times collide.
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const NodeId c = network.add_node("c");
  network.set_link(a, c, net::Link{100.0, 0.0});
  network.set_link(b, c, net::Link{100.0, 0.0});
  network.send(env(a, c, 1, 72));  // both: 100 bytes at 100 B/s -> t=1.0
  network.send(env(b, c, 2, 72));
  EXPECT_EQ(network.receive(c).kind, 1U);
  EXPECT_EQ(network.receive(c).kind, 2U);
  EXPECT_DOUBLE_EQ(network.clock().now(), 1.0);
}

TEST(Network, ReceiveBeforeHonorsDeadline) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.set_link(a, b, net::Link{100.0, 1.0});
  network.send(env(a, b, 1, 72));  // arrives at 2.0
  // Deadline before the arrival: nothing, and the clock stays put.
  EXPECT_FALSE(network.receive_before(b, 1.5).has_value());
  EXPECT_DOUBLE_EQ(network.clock().now(), 0.0);
  EXPECT_EQ(network.pending(b), 1U);
  // Deadline at the arrival instant: delivered, clock advanced.
  const auto got = network.receive_before(b, 2.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, 1U);
  EXPECT_DOUBLE_EQ(network.clock().now(), 2.0);
  // Empty inbox: nullopt, not a throw.
  EXPECT_FALSE(network.receive_before(b, 100.0).has_value());
}

TEST(Network, NextArrivalReportsEarliestWithoutConsuming) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  EXPECT_FALSE(network.next_arrival(b).has_value());
  network.set_link(a, b, net::Link{100.0, 0.5});
  network.send(env(a, b, 1, 72));  // arrives 1.5
  network.send(env(a, b, 2, 72));  // serialized behind it: arrives 2.5
  ASSERT_TRUE(network.next_arrival(b).has_value());
  EXPECT_DOUBLE_EQ(*network.next_arrival(b), 1.5);
  EXPECT_EQ(network.pending(b), 2U);  // peeking consumed nothing
  network.receive(b);
  EXPECT_DOUBLE_EQ(*network.next_arrival(b), 2.5);
}

TEST(Network, SelfSendAndUnknownNodesRejected) {
  net::Network network;
  const NodeId a = network.add_node("a");
  EXPECT_THROW(network.send(env(a, a, 1, 0)), InvalidArgument);
  EXPECT_THROW(network.send(env(a, 99, 1, 0)), InvalidArgument);
  EXPECT_THROW((void)network.node_name(5), InvalidArgument);
}

TEST(Network, PendingCounts) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.send(env(a, b, 1, 0));
  network.send(env(a, b, 2, 0));
  EXPECT_EQ(network.pending(b), 2U);
  network.receive(b);
  EXPECT_EQ(network.pending(b), 1U);
}


TEST(Network, DefaultLinkUsedWithoutOverride) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.set_default_link(net::Link{50.0, 0.0});
  EXPECT_DOUBLE_EQ(network.link(a, b).bandwidth_bytes_per_sec, 50.0);
  network.set_link(a, b, net::Link{100.0, 0.0});
  EXPECT_DOUBLE_EQ(network.link(a, b).bandwidth_bytes_per_sec, 100.0);
  EXPECT_DOUBLE_EQ(network.link(b, a).bandwidth_bytes_per_sec, 100.0);
}

TEST(Network, LinkIsSymmetricButDirectionsIndependentlyBusy) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.set_link(a, b, net::Link{100.0, 0.0});
  // Two sends a->b serialize; a send b->a does not wait for them.
  network.send(env(a, b, 1, 72));
  network.send(env(a, b, 2, 72));
  network.send(env(b, a, 3, 72));
  EXPECT_EQ(network.receive(a).kind, 3U);
  EXPECT_DOUBLE_EQ(network.clock().now(), 1.0);
}

TEST(Network, NextEventIsTheGlobalMinimumAcrossNodes) {
  // next_event() is the arrival index the event scheduler pumps: it must
  // always name the globally earliest (arrival, sequence) frame, across ALL
  // destination nodes, without consuming it or advancing the clock.
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const NodeId c = network.add_node("c");
  EXPECT_FALSE(network.next_event().has_value());
  EXPECT_EQ(network.total_in_flight(), 0U);
  EXPECT_TRUE(network.quiescent());

  network.set_link(a, b, net::Link{100.0, 5.0});  // slow: arrives at 6.0
  network.set_link(a, c, net::Link{100.0, 1.0});  // fast: arrives at 2.0
  network.send(env(a, b, 1, 72));
  network.send(env(a, c, 2, 72));
  EXPECT_EQ(network.total_in_flight(), 2U);
  EXPECT_FALSE(network.quiescent());

  auto event = network.next_event();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->node, c);
  EXPECT_DOUBLE_EQ(event->arrival, 2.0);
  EXPECT_DOUBLE_EQ(network.clock().now(), 0.0);  // peeking never advances

  // Consuming the head re-indexes: the slow frame becomes the global min.
  EXPECT_EQ(network.receive(c).kind, 2U);
  event = network.next_event();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->node, b);
  EXPECT_DOUBLE_EQ(event->arrival, 6.0);
  EXPECT_EQ(network.total_in_flight(), 1U);

  network.receive(b);
  EXPECT_FALSE(network.next_event().has_value());
  EXPECT_TRUE(network.quiescent());
}

TEST(Network, NextEventTieBreaksBySendSequence) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const NodeId c = network.add_node("c");
  // Identical links: both frames arrive at the same instant; the earlier
  // send must win the index — the scheduler's stable event ordering.
  network.set_link(a, b, net::Link{100.0, 1.0});
  network.set_link(a, c, net::Link{100.0, 1.0});
  network.send(env(a, b, 1, 72));
  network.send(env(a, c, 2, 72));
  const auto event = network.next_event();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->node, b);
  const auto first = network.receive(b);
  EXPECT_EQ(first.kind, 1U);
  EXPECT_EQ(network.next_event()->node, c);
}

TEST(Network, NextEventTracksManyNodesInArrivalOrder) {
  // A fan-out across many nodes with staggered latencies: repeatedly pumping
  // next_event()/receive() must deliver in strict global arrival order.
  net::Network network;
  const NodeId hub = network.add_node("hub");
  std::vector<NodeId> leaves;
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(network.add_node("leaf" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    // Descending latency: later sends arrive earlier.
    network.set_link(hub, leaves[i],
                     net::Link{1e6, static_cast<double>(8 - i)});
    network.send(env(hub, leaves[i], static_cast<std::uint32_t>(i + 1), 16));
  }
  EXPECT_EQ(network.total_in_flight(), leaves.size());
  double last_arrival = 0.0;
  std::size_t delivered = 0;
  while (const auto event = network.next_event()) {
    EXPECT_GE(event->arrival, last_arrival);
    last_arrival = event->arrival;
    const Envelope e = network.receive(event->node);
    EXPECT_EQ(e.dst, event->node);
    ++delivered;
  }
  EXPECT_EQ(delivered, leaves.size());
  EXPECT_TRUE(network.quiescent());
}

TEST(Topology, ProfilesAreReusedRoundRobin) {
  net::Network network;
  const auto topo = net::build_hospital_star(network, 10);  // > 8 profiles
  EXPECT_EQ(topo.platforms.size(), 10U);
  const auto& l0 = network.link(topo.platforms[0], topo.server);
  const auto& l8 = network.link(topo.platforms[8], topo.server);
  EXPECT_DOUBLE_EQ(l0.bandwidth_bytes_per_sec, l8.bandwidth_bytes_per_sec);
}

TEST(TrafficStats, CountsBytesPerKindAndPair) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.send(env(a, b, 1, 100));
  network.send(env(a, b, 1, 100));
  network.send(env(b, a, 2, 50));
  const auto& stats = network.stats();
  EXPECT_EQ(stats.total_messages(), 3U);
  EXPECT_EQ(stats.total_bytes(), 2 * 128 + 78U);
  EXPECT_EQ(stats.bytes_for_kind(1), 256U);
  EXPECT_EQ(stats.messages_for_kind(1), 2U);
  EXPECT_EQ(stats.bytes_for_kind(99), 0U);
  EXPECT_EQ(stats.bytes_between(a, b), 256U);
  EXPECT_EQ(stats.bytes_between(b, a), 78U);
}

TEST(TrafficStats, ResetClears) {
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.send(env(a, b, 1, 10));
  network.stats().reset();
  EXPECT_EQ(network.stats().total_bytes(), 0U);
  EXPECT_EQ(network.stats().total_messages(), 0U);
}

TEST(Topology, HospitalStarShape) {
  net::Network network;
  const auto topo = net::build_hospital_star(network, 5);
  EXPECT_EQ(topo.platforms.size(), 5U);
  EXPECT_EQ(network.node_count(), 6U);
  EXPECT_EQ(network.node_name(topo.server), "central-server");
  // Heterogeneous links: at least two distinct bandwidths.
  const double b0 =
      network.link(topo.platforms[0], topo.server).bandwidth_bytes_per_sec;
  const double b2 =
      network.link(topo.platforms[2], topo.server).bandwidth_bytes_per_sec;
  EXPECT_NE(b0, b2);
}

}  // namespace
}  // namespace splitmed
