// Unit tests for the observability subsystem (src/obs/): the metrics
// registry and its Prometheus exposition, the dual-clock trace recorder and
// its Chrome trace-event JSON / JSONL exports, the cross-node flow events
// and their start/finish pairing through the simulated network, the
// critical-path analyzer's attribution model, the flight-recorder ring, and
// the ObsSession install/uninstall lifecycle with its single-session and
// postmortem-dump guarantees. The exported JSON is checked with a small
// recursive-descent validator, not substring matching, so a malformed
// escape or a trailing comma fails loudly here instead of in Perfetto.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/net/fault.hpp"
#include "src/net/link.hpp"
#include "src/net/network.hpp"
#include "src/obs/critical_path.hpp"
#include "src/obs/obs.hpp"
#include "src/serial/message.hpp"

namespace splitmed::obs {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

// ---------------------------------------------------------------------------
// Minimal JSON validator. Accepts exactly the RFC 8259 grammar (no trailing
// commas, no unquoted keys, \u escapes must have four hex digits). Returns
// true iff `text` is one complete JSON value with nothing but whitespace
// after it.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  bool string() {
    if (!consume('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
            ++pos_;
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    consume('-');
    if (!digits()) return false;
    if (consume('.') && !digits()) return false;
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

bool is_valid_json(std::string_view text) {
  return JsonValidator(text).valid();
}

TEST(JsonValidatorSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(is_valid_json(R"({"a":[1,2.5,-3e+2],"b":"x\n","c":null})"));
  EXPECT_TRUE(is_valid_json("[]"));
  EXPECT_FALSE(is_valid_json(R"({"a":1,})"));     // trailing comma
  EXPECT_FALSE(is_valid_json(R"({"a":01})" "x"));  // trailing garbage
  EXPECT_FALSE(is_valid_json(R"("unterminated)"));
  EXPECT_FALSE(is_valid_json(R"("bad \q escape")"));
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(Metrics, CounterOnlyGoesUp) {
  MetricsRegistry reg;
  Counter& c = reg.counter("splitmed_test_total", "help");
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  EXPECT_THROW(c.inc(-1.0), InvalidArgument);
}

TEST(Metrics, GaugeMovesBothWays) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("splitmed_test_gauge", "help");
  g.set(4.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(Metrics, HistogramUsesUpperInclusiveLeBuckets) {
  MetricsRegistry reg;
  Histogram& h =
      reg.histogram("splitmed_test_seconds", "help", {1.0, 2.0, 5.0});
  // Prometheus `le` semantics: a value exactly on a bound belongs to that
  // bucket; values past the last bound land only in +Inf.
  h.observe(1.0);
  h.observe(1.5);
  h.observe(2.0);
  h.observe(7.0);
  EXPECT_EQ(h.count(), 4U);
  EXPECT_DOUBLE_EQ(h.sum(), 11.5);
  EXPECT_EQ(h.cumulative_count(0), 1U);  // <= 1.0
  EXPECT_EQ(h.cumulative_count(1), 3U);  // <= 2.0
  EXPECT_EQ(h.cumulative_count(2), 3U);  // <= 5.0
}

TEST(Metrics, HistogramRejectsBadBounds) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("splitmed_test_e", "help", {}), InvalidArgument);
  EXPECT_THROW(reg.histogram("splitmed_test_u", "help", {2.0, 1.0}),
               InvalidArgument);
  EXPECT_THROW(reg.histogram("splitmed_test_d", "help", {1.0, 1.0}),
               InvalidArgument);
}

TEST(Metrics, RejectsInvalidNamesAndTypeConflicts) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("0starts_with_digit", "help"), InvalidArgument);
  EXPECT_THROW(reg.counter("has-dash", "help"), InvalidArgument);
  reg.counter("splitmed_test_total", "help");
  // Same name, different type: must throw, never silently alias.
  EXPECT_THROW(reg.gauge("splitmed_test_total", "help"), InvalidArgument);
  reg.histogram("splitmed_test_h", "help", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("splitmed_test_h", "help", {1.0, 3.0}),
               InvalidArgument);
}

TEST(Metrics, SameNameIsStablePerLabelSet) {
  MetricsRegistry reg;
  Counter& a = reg.counter("splitmed_test_total", "help",
                           {{"kind", "activation"}});
  Counter& b = reg.counter("splitmed_test_total", "help", {{"kind", "logits"}});
  EXPECT_NE(&a, &b);
  // Re-requesting the same (name, labels) returns the same instance.
  EXPECT_EQ(&a, &reg.counter("splitmed_test_total", "help",
                             {{"kind", "activation"}}));
  EXPECT_EQ(reg.families(), 1U);
}

TEST(Metrics, PrometheusExpositionIsExact) {
  MetricsRegistry reg;
  reg.counter("splitmed_msgs_total", "Messages sent", {{"kind", "activation"}})
      .inc(3);
  reg.gauge("splitmed_loss", "Train loss").set(0.5);
  Histogram& h = reg.histogram("splitmed_lat_seconds", "Latency",
                               {0.005, 0.01});
  h.observe(0.004);
  h.observe(0.2);
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# HELP splitmed_msgs_total Messages sent\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE splitmed_msgs_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("splitmed_msgs_total{kind=\"activation\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE splitmed_loss gauge\n"), std::string::npos);
  EXPECT_NE(text.find("splitmed_loss 0.5\n"), std::string::npos);
  // Bucket bounds render via shortest round-trip, so 0.005 stays "0.005"
  // (not "0.0050000000000000001"); buckets are cumulative and +Inf closes
  // the family.
  EXPECT_NE(text.find("splitmed_lat_seconds_bucket{le=\"0.005\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("splitmed_lat_seconds_bucket{le=\"0.01\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("splitmed_lat_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("splitmed_lat_seconds_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("splitmed_lat_seconds_sum "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace recorder.

TEST(Trace, JsonPrimitivesEscapeAndRoundTrip) {
  EXPECT_EQ(json_string("a\"b\\c\nd"), R"("a\"b\\c\nd")");
  EXPECT_TRUE(is_valid_json(json_string(std::string("\x01\x1f tab\t"))));
  EXPECT_EQ(json_number(0.005), "0.005");
  EXPECT_EQ(json_number(-2.0), "-2");
  // JSON has no NaN/Inf; they degrade to null.
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(Trace, SpanRecordsCompleteEventWithArgs) {
  TraceRecorder rec;
  {
    Span span(&rec, "unit.work", "test");
    span.arg("round", std::uint64_t{3});
    span.arg("kind", "activation");
  }
  rec.instant("unit.mark", "test");
  rec.counter("unit.value", 1.5);
  EXPECT_EQ(rec.size(), 3U);
  EXPECT_EQ(rec.dropped(), 0U);
}

TEST(Trace, NullRecorderSpanIsANoOp) {
  Span span(nullptr, "never.recorded", "test");
  span.arg("key", "value");  // must not crash
}

TEST(Trace, DropsNewestPastCapAndCounts) {
  TraceRecorder rec(/*max_events=*/2);
  rec.instant("first", "test");
  rec.instant("second", "test");
  rec.instant("third", "test");
  EXPECT_EQ(rec.size(), 2U);
  EXPECT_EQ(rec.dropped(), 1U);
}

TEST(Trace, ChromeTraceIsValidJsonWithDualClockMirror) {
  TraceRecorder rec;
  double sim = 1.25;
  rec.set_sim_source([&sim] { return sim; });
  {
    Span span(&rec, "net.send", "net");
    span.arg("bytes", std::uint64_t{4416});
  }
  rec.instant("no \"quotes\" issue", "test");
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string text = os.str();
  ASSERT_TRUE(is_valid_json(text)) << text;
  // Both clock timelines are named, and sim-stamped events are mirrored
  // under pid 2.
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(text.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(text.find("\"net.send\""), std::string::npos);
}

TEST(Trace, JsonlLinesAreEachValidJson) {
  TraceRecorder rec;
  rec.set_sim_source([] { return 2.0; });
  rec.instant("a", "test", {arg("path", "dir\\file \"x\"")});
  rec.counter("b", 0.25);
  std::ostringstream os;
  rec.write_jsonl(os);
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(is_valid_json(line)) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2U);
}

// ---------------------------------------------------------------------------
// Flight recorder.

TEST(Flight, RingKeepsNewestWithContinuousSeq) {
  FlightRecorder fr(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    fr.note(static_cast<double>(i), "event " + std::to_string(i));
  }
  EXPECT_EQ(fr.total_recorded(), 10U);
  const auto events = fr.snapshot();
  ASSERT_EQ(events.size(), 4U);
  // Oldest-first, and the ring holds the LAST four events (6..9) with their
  // original monotone sequence numbers intact.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6U + i);
    EXPECT_EQ(events[i].what, "event " + std::to_string(6 + i));
    EXPECT_DOUBLE_EQ(events[i].sim_s, static_cast<double>(6 + i));
  }
}

TEST(Flight, DumpCarriesReasonAndEvents) {
  FlightRecorder fr(8);
  fr.note(0.5, "send activation p0->server round=1");
  fr.note(-1.0, "TIMEOUT platform 0");
  std::ostringstream os;
  fr.dump(os, "unit-test reason");
  const std::string text = os.str();
  EXPECT_NE(text.find("unit-test reason"), std::string::npos);
  EXPECT_NE(text.find("send activation p0->server round=1"),
            std::string::npos);
  EXPECT_NE(text.find("TIMEOUT platform 0"), std::string::npos);

  const std::string path = temp_path("flight_dump_test.log");
  ASSERT_TRUE(fr.dump_to_file(path, "unit-test reason"));
  std::ifstream in(path);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(file, text);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Flow events: the "ph":"s"/"f" pairs that link a send on one node timeline
// to its delivery on another. The exporter writes one event per line, so the
// pairing checks scan lines of the Chrome export.

struct FlowEvent {
  char ph = '?';
  std::uint64_t id = 0;
  bool bound_enclosing = false;  // carries "bp":"e"
  bool on_sim_pid = false;       // exported on the simulated timeline (pid 2)
};

std::vector<FlowEvent> flow_events(const std::string& chrome) {
  std::vector<FlowEvent> out;
  std::istringstream in(chrome);
  std::string line;
  while (std::getline(in, line)) {
    const bool start = line.find("\"ph\":\"s\"") != std::string::npos;
    const bool finish = line.find("\"ph\":\"f\"") != std::string::npos;
    if (!start && !finish) continue;
    FlowEvent ev;
    ev.ph = start ? 's' : 'f';
    const std::size_t id_pos = line.find("\"id\":");
    if (id_pos != std::string::npos) {
      ev.id = std::strtoull(line.c_str() + id_pos + 5, nullptr, 10);
    }
    ev.bound_enclosing = line.find("\"bp\":\"e\"") != std::string::npos;
    ev.on_sim_pid = line.find("\"pid\":2") != std::string::npos;
    out.push_back(ev);
  }
  return out;
}

/// Asserts the flow events in a Chrome export form a perfect bijection:
/// every start has exactly one finish with the same (nonzero) id, every
/// finish binds to its enclosing slice, and all live on the sim timeline.
/// Returns the sorted flow ids.
std::vector<std::uint64_t> expect_flows_paired(const std::string& chrome) {
  std::vector<std::uint64_t> starts;
  std::vector<std::uint64_t> finishes;
  for (const FlowEvent& ev : flow_events(chrome)) {
    EXPECT_NE(ev.id, 0U);
    EXPECT_TRUE(ev.on_sim_pid);
    EXPECT_EQ(ev.bound_enclosing, ev.ph == 'f');
    (ev.ph == 's' ? starts : finishes).push_back(ev.id);
  }
  std::sort(starts.begin(), starts.end());
  std::sort(finishes.begin(), finishes.end());
  EXPECT_EQ(starts, finishes);
  EXPECT_EQ(std::adjacent_find(starts.begin(), starts.end()), starts.end())
      << "duplicate flow id";
  return starts;
}

std::string session_chrome_trace() {
  std::ostringstream os;
  trace()->write_chrome_trace(os);
  return os.str();
}

TEST(Flow, RecorderExportsEachFlowEventOnceWithIdAndBindingPoint) {
  TraceRecorder rec;
  TraceEvent start;
  start.ph = 's';
  start.name = "net.flow";
  start.cat = "net";
  start.sim_s = 1.0;
  start.flow_id = 42;
  rec.record(start);
  TraceEvent finish;
  finish.ph = 'f';
  finish.name = "net.flow";
  finish.cat = "net";
  finish.sim_s = 2.5;
  finish.flow_id = 42;
  rec.record(finish);

  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string text = os.str();
  ASSERT_TRUE(is_valid_json(text)) << text;
  // Exactly one 's' and one 'f' — flow events are never mirrored onto the
  // wall timeline (a duplicated id reads as two overlapping flows).
  const auto flows = flow_events(text);
  ASSERT_EQ(flows.size(), 2U);
  EXPECT_EQ(flows[0].ph, 's');
  EXPECT_EQ(flows[1].ph, 'f');
  EXPECT_EQ(expect_flows_paired(text), std::vector<std::uint64_t>{42});

  std::ostringstream jsonl;
  rec.write_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("\"flow_id\":42"), std::string::npos);
}

TEST(Flow, NetworkPairsEveryDeliveredFrame) {
  ObsConfig cfg;
  cfg.enabled = true;
  cfg.detail = 2;
  const ObsSession session(cfg);
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.set_link(a, b, net::Link{100.0, 0.5});
  for (std::uint64_t round = 0; round < 3; ++round) {
    network.send(make_envelope(a, b, 1, round, {1, 2, 3}));
    (void)network.receive(b);
  }
  EXPECT_EQ(expect_flows_paired(session_chrome_trace()).size(), 3U);
}

TEST(Flow, InjectedDuplicateGetsItsOwnFlow) {
  ObsConfig cfg;
  cfg.enabled = true;
  const ObsSession session(cfg);
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.set_link(a, b, net::Link{100.0, 0.1});
  net::FaultPlan plan;
  plan.duplicate_rate = 1.0;
  network.set_fault_plan(a, b, plan);
  network.set_fault_seed(7);

  network.send(make_envelope(a, b, 1, 0, {9, 9}));
  const Envelope first = network.receive(b);
  const Envelope second = network.receive(b);
  // Two physical frames flew: each carries its own sideband flow id, and
  // the export holds two disjoint start/finish pairs.
  EXPECT_NE(first.trace.flow_id, second.trace.flow_id);
  EXPECT_EQ(expect_flows_paired(session_chrome_trace()).size(), 2U);
}

TEST(Flow, CorruptDiscardedFrameStillFinishesItsFlow) {
  ObsConfig cfg;
  cfg.enabled = true;
  const ObsSession session(cfg);
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.set_link(a, b, net::Link{100.0, 0.1});
  net::FaultPlan plan;
  plan.corrupt_rate = 1.0;
  network.set_fault_plan(a, b, plan);
  network.set_fault_seed(7);

  network.send(make_envelope(a, b, 1, 0, {1, 2, 3, 4}));
  // The CRC trailer fails at delivery; the frame is discarded, never handed
  // to protocol code — but the WAN did deliver it, so its flow finishes.
  EXPECT_FALSE(network.receive_before(b, 1e9).has_value());
  EXPECT_EQ(network.stats().corrupted(), 1U);
  EXPECT_EQ(expect_flows_paired(session_chrome_trace()).size(), 1U);
}

TEST(Flow, EachRetransmissionAttemptIsItsOwnFlight) {
  ObsConfig cfg;
  cfg.enabled = true;
  const ObsSession session(cfg);
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.set_link(a, b, net::Link{100.0, 0.2});

  Envelope request = make_envelope(a, b, 1, 0, {5});
  request.trace.platform = a;
  network.send(request);
  // The recovery layer re-sends the same protocol message: a distinct
  // physical frame with the attempt counter bumped (core::Platform's
  // resend_last path).
  Envelope retry = request;
  retry.retransmit = true;
  retry.trace.attempt = 1;
  network.send(retry);

  const Envelope d0 = network.receive(b);
  const Envelope d1 = network.receive(b);
  EXPECT_EQ(d0.trace.attempt, 0U);
  EXPECT_EQ(d1.trace.attempt, 1U);
  EXPECT_NE(d0.trace.flow_id, d1.trace.flow_id);
  EXPECT_EQ(expect_flows_paired(session_chrome_trace()).size(), 2U);
}

// ---------------------------------------------------------------------------
// Critical-path analyzer: the attribution model on crafted waits.

using CP = CriticalPathAnalyzer;

TEST(CriticalPath, WaitsSplitAtFlightStartAndSumToDuration) {
  CP cp;
  cp.set_topology(0, {"server", "p1", "p2"});
  cp.begin_round(1, 10.0);
  // Request wait 10->12 on a frame that took flight at 11: one second of
  // platform-side queueing, one second of uplink.
  MsgWait request;
  request.from = 10.0;
  request.to = 12.0;
  request.sent_sim = 11.0;
  request.src = 1;
  request.dst = 0;
  cp.observe_wait(request);
  // Reply wait 12->15, flight start 13: one second of server queue, two of
  // downlink — owned by the platform being replied to (dst).
  MsgWait reply;
  reply.from = 12.0;
  reply.to = 15.0;
  reply.sent_sim = 13.0;
  reply.src = 0;
  reply.dst = 1;
  cp.observe_wait(reply);
  cp.close_round(1, 16.0);  // one second not spent waiting -> slack

  const auto records = cp.records();
  ASSERT_EQ(records.size(), 1U);
  const auto& r = records[0];
  EXPECT_EQ(r.round, 1);
  EXPECT_DOUBLE_EQ(r.duration(), 6.0);
  EXPECT_DOUBLE_EQ(r.segments[CP::kPlatformCompute], 1.0);
  EXPECT_DOUBLE_EQ(r.segments[CP::kUplink], 1.0);
  EXPECT_DOUBLE_EQ(r.segments[CP::kServerQueue], 1.0);
  EXPECT_DOUBLE_EQ(r.segments[CP::kServerCompute], 0.0);
  EXPECT_DOUBLE_EQ(r.segments[CP::kDownlink], 2.0);
  EXPECT_DOUBLE_EQ(r.segments[CP::kRetransmit], 0.0);
  EXPECT_DOUBLE_EQ(r.segments[CP::kDeadlineSlack], 1.0);
  double sum = 0.0;
  for (const double s : r.segments) sum += s;
  EXPECT_DOUBLE_EQ(sum, r.duration());  // the invariant CI gates on
  ASSERT_TRUE(r.has_straggler);
  EXPECT_EQ(r.straggler_node, 1U);
  EXPECT_EQ(r.straggler_segment, CP::kDownlink);
  EXPECT_DOUBLE_EQ(r.straggler_seconds, 5.0);
}

TEST(CriticalPath, FaultedWaitsAndTimeoutsAreRetransmitOverhead) {
  CP cp;
  cp.set_topology(0, {"server", "p1", "p2"});
  cp.begin_round(4, 0.0);
  MsgWait resent;  // retransmitted reply: every second is recovery overhead
  resent.from = 0.0;
  resent.to = 3.0;
  resent.sent_sim = 1.0;
  resent.src = 0;
  resent.dst = 1;
  resent.retransmit = true;
  cp.observe_wait(resent);
  MsgWait corrupt;  // CRC-discarded request: same bucket
  corrupt.from = 3.0;
  corrupt.to = 4.0;
  corrupt.sent_sim = 3.5;
  corrupt.src = 1;
  corrupt.dst = 0;
  corrupt.corrupt_discarded = true;
  cp.observe_wait(corrupt);
  cp.note_timeout_wait(4.0, 6.0, 2);  // recovery timeout on platform 2
  cp.close_round(4, 6.0);

  const auto r = cp.records().back();  // a copy: records() returns by value
  EXPECT_DOUBLE_EQ(r.segments[CP::kRetransmit], 6.0);
  EXPECT_DOUBLE_EQ(r.segments[CP::kDeadlineSlack], 0.0);
  ASSERT_TRUE(r.has_straggler);
  EXPECT_EQ(r.straggler_node, 1U);  // 4 s attributed vs p2's 2 s
  EXPECT_EQ(r.straggler_segment, CP::kRetransmit);
}

TEST(CriticalPath, StragglerTiesBreakToTheLowerNodeId) {
  CP cp;
  cp.set_topology(0, {"server", "p1", "p2"});
  cp.begin_round(1, 0.0);
  // Identical two-second uplink waits, the HIGHER node id observed first:
  // the election must still pick node 1 (ordered per-platform map + strict
  // greater-than), so straggler identity is deterministic.
  MsgWait wait;
  wait.from = 0.0;
  wait.to = 2.0;
  wait.sent_sim = 0.0;
  wait.src = 2;
  wait.dst = 0;
  cp.observe_wait(wait);
  wait.from = 2.0;
  wait.to = 4.0;
  wait.sent_sim = 2.0;
  wait.src = 1;
  cp.observe_wait(wait);
  cp.close_round(1, 4.0);

  const auto r = cp.records().back();  // a copy: records() returns by value
  ASSERT_TRUE(r.has_straggler);
  EXPECT_EQ(r.straggler_node, 1U);
  EXPECT_DOUBLE_EQ(r.straggler_seconds, 2.0);
}

TEST(CriticalPath, WaitsOutsideAnOpenRoundAreIgnored) {
  CP cp;
  cp.set_topology(0, {"server", "p1"});
  MsgWait wait;
  wait.from = 0.0;
  wait.to = 5.0;
  wait.src = 1;
  wait.dst = 0;
  cp.observe_wait(wait);           // before any round: construction traffic
  cp.note_timeout_wait(0.0, 5.0, 1);
  cp.close_round(1, 5.0);          // nothing open: no record
  EXPECT_TRUE(cp.records().empty());

  cp.begin_round(2, 10.0);
  cp.close_round(3, 12.0);         // wrong round id: round 2 stays open
  EXPECT_TRUE(cp.records().empty());
  cp.close_round(2, 12.0);
  ASSERT_EQ(cp.records().size(), 1U);
  // No wait was observed inside the round — all slack.
  EXPECT_DOUBLE_EQ(cp.records()[0].segments[CP::kDeadlineSlack], 2.0);
}

TEST(CriticalPath, JsonlRecordsAreValidJsonWithTheDocumentedSchema) {
  CP cp;
  cp.set_topology(0, {"server", "metro-hospital-a-0"});
  cp.begin_round(1, 0.0);
  MsgWait wait;
  wait.from = 0.0;
  wait.to = 1.5;
  wait.sent_sim = 0.5;
  wait.src = 1;
  wait.dst = 0;
  cp.observe_wait(wait);
  cp.close_round(1, 2.0);

  std::ostringstream os;
  cp.write_jsonl(os);
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(is_valid_json(line)) << line;
    for (const char* key : {"\"round\":", "\"duration_s\":", "\"segments\":",
                            "\"straggler\":", "\"per_platform\":"}) {
      EXPECT_NE(line.find(key), std::string::npos) << key;
    }
    ++lines;
  }
  EXPECT_EQ(lines, 1U);
  // The straggler carries the display name and its dominant segment.
  EXPECT_NE(os.str().find("\"platform\":\"metro-hospital-a-0\""),
            std::string::npos);
  EXPECT_NE(os.str().find("\"reason\":\"uplink\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Session lifecycle.

TEST(Session, DisabledConfigInstallsNothing) {
  const ObsSession session{ObsConfig{}};
  EXPECT_FALSE(session.active());
  EXPECT_EQ(trace(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(flight(), nullptr);
  EXPECT_EQ(gemm_seconds_counter(), nullptr);
  EXPECT_FALSE(detail_at_least(1));
}

TEST(Session, InstallsAndUninstallsGlobals) {
  ObsConfig cfg;
  cfg.enabled = true;
  cfg.detail = 2;
  {
    ObsSession session(cfg);
    EXPECT_TRUE(session.active());
    EXPECT_NE(trace(), nullptr);
    EXPECT_NE(metrics(), nullptr);
    EXPECT_NE(flight(), nullptr);
    EXPECT_NE(gemm_seconds_counter(), nullptr);
    EXPECT_NE(gemm_calls_counter(), nullptr);
    EXPECT_TRUE(detail_at_least(2));
    EXPECT_FALSE(detail_at_least(3));
    // A second concurrent session must be refused, not silently layered.
    EXPECT_THROW(ObsSession{cfg}, Error);
    session.close();
    EXPECT_FALSE(session.active());
    EXPECT_EQ(trace(), nullptr);
    session.close();  // idempotent
  }
  // The slot is free again after teardown.
  const ObsSession next(cfg);
  EXPECT_TRUE(next.active());
}

TEST(Session, RejectsBadDetail) {
  ObsConfig cfg;
  cfg.enabled = true;
  cfg.detail = 3;
  EXPECT_THROW(ObsSession{cfg}, Error);
  cfg.detail = 0;
  EXPECT_THROW(ObsSession{cfg}, Error);
}

TEST(Session, WritesConfiguredFilesOnClose) {
  ObsConfig cfg;
  cfg.enabled = true;
  cfg.trace_path = temp_path("obs_session_trace.json");
  cfg.trace_jsonl_path = temp_path("obs_session_trace.jsonl");
  cfg.metrics_path = temp_path("obs_session_metrics.prom");
  {
    ObsSession session(cfg);
    trace()->instant("unit.event", "test");
    metrics()->counter("splitmed_unit_total", "help").inc();
  }
  std::ifstream in(cfg.trace_path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_TRUE(is_valid_json(text));
  EXPECT_TRUE(fs::exists(cfg.trace_jsonl_path));
  std::ifstream prom(cfg.metrics_path);
  const std::string ptext((std::istreambuf_iterator<char>(prom)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(ptext.find("splitmed_unit_total 1\n"), std::string::npos);
  for (const auto& p : {cfg.trace_path, cfg.trace_jsonl_path,
                        cfg.metrics_path}) {
    fs::remove(p);
  }
}

TEST(Session, PostmortemDumpsFlightToConfiguredPath) {
  ObsConfig cfg;
  cfg.enabled = true;
  cfg.flight_dump_path = temp_path("obs_postmortem.log");
  {
    ObsSession session(cfg);
    flight()->note(1.0, "send activation p0->server round=7");
    postmortem("unit-test protocol error");
    // Cascading failures must not overwrite the first dump.
    postmortem("secondary failure");
    EXPECT_DOUBLE_EQ(
        metrics()->counter("splitmed_postmortems_total", "").value(), 2.0);
  }
  std::ifstream in(cfg.flight_dump_path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("unit-test protocol error"), std::string::npos);
  EXPECT_NE(text.find("send activation p0->server round=7"),
            std::string::npos);
  EXPECT_TRUE(fs::exists(cfg.flight_dump_path + ".1"));
  fs::remove(cfg.flight_dump_path);
  fs::remove(cfg.flight_dump_path + ".1");
}

TEST(Session, PostmortemIsANoOpWithoutASession) {
  postmortem("nobody is listening");  // must not crash or write anything
  flight_note(1.0, "nor this");
}

TEST(Session, KindNamerFallsBackToNumbered) {
  set_kind_namer(nullptr);
  EXPECT_EQ(kind_name(7), "kind7");
  set_kind_namer([](std::uint32_t k) { return "k" + std::to_string(k); });
  EXPECT_EQ(kind_name(7), "k7");
  set_kind_namer(nullptr);
}

}  // namespace
}  // namespace splitmed::obs
