// Process-global observability context.
//
// Instrumentation sites across the stack (net::Network, the trainers, the
// nn layers, gemm) read three global pointers — trace(), metrics(),
// flight() — that are null until an ObsSession installs them. The disabled
// path is therefore one relaxed atomic load and a branch per site: no clock
// reads, no allocation, no RNG draws, no byte changes. That is the repo's
// standing determinism contract — observability off (the default) is
// bitwise inert, and observability ON changes nothing but the output files
// (tracing only ever READS training state; asserted by golden_curve_test).
//
// Lifetime: exactly one ObsSession may be active at a time. SplitTrainer
// owns one when SplitConfig::obs.enabled is set (the usual path — benches
// just fill in SplitConfig::obs from --trace-out / --metrics-out /
// --trace-detail); tests construct sessions directly. Export happens in the
// session destructor (and on flush()), so files land even when the trainer
// dies mid-run — which is what makes the flight-recorder dump a usable
// post-mortem for the crash-injection harness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/obs/flight_recorder.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace splitmed::obs {

class CriticalPathAnalyzer;

/// Everything observable about one run. Defaults are all-off and inert.
struct ObsConfig {
  /// Master switch. False = every global accessor stays null.
  bool enabled = false;
  /// Chrome trace-event JSON output path ("" = don't write).
  std::string trace_path;
  /// JSONL trace output path ("" = don't write).
  std::string trace_jsonl_path;
  /// Prometheus text snapshot output path ("" = don't write).
  std::string metrics_path;
  /// 1 = protocol/trainer/network events; 2 = additionally per-layer spans
  /// inside nn::Sequential (heavier but shows where the compute time goes).
  int detail = 1;
  /// Trace event cap; past it events are counted and dropped.
  std::size_t max_trace_events = 1U << 20;
  /// Flight recorder ring size (last-N protocol events kept).
  std::size_t flight_capacity = 256;
  /// Where postmortem() and the session destructor dump the flight
  /// recorder. "" = postmortem dumps go to the error log only and the
  /// destructor does not dump.
  std::string flight_dump_path;
  /// Per-round critical-path attribution JSONL output path ("" = don't
  /// write). The CriticalPathAnalyzer itself runs whenever the session is
  /// enabled — its metric families land in the Prometheus snapshot either
  /// way — this only controls the JSONL export.
  std::string attribution_path;
};

/// Global accessors — null/false while no session is active.
[[nodiscard]] TraceRecorder* trace();
[[nodiscard]] MetricsRegistry* metrics();
[[nodiscard]] FlightRecorder* flight();
/// The per-round critical-path analyzer (src/obs/critical_path.hpp); the
/// network's receive paths feed it message waits, the trainer opens/closes
/// its rounds. Null while no session is active.
[[nodiscard]] CriticalPathAnalyzer* attribution();
/// True when a session is active AND its detail level is >= `level`.
[[nodiscard]] bool detail_at_least(int level);

/// Pre-registered hot-path counters, readable as one atomic pointer load so
/// worker threads (gemm runs inside parallel_for bodies) never touch the
/// registry mutex. Null while no session is active.
[[nodiscard]] Counter* gemm_seconds_counter();
[[nodiscard]] Counter* gemm_calls_counter();

/// Pre-registered workspace-arena gauges (src/tensor/workspace.hpp):
/// process-wide scratch bytes reserved across all thread arenas, and bytes
/// currently checked out. Same single-atomic-load discipline as the gemm
/// counters — arena checkout runs inside parallel_for bodies. Null while no
/// session is active.
[[nodiscard]] Gauge* workspace_reserved_gauge();
[[nodiscard]] Gauge* workspace_in_use_gauge();
/// Peak checked-out arena bytes since the last ws::reset_step_peak() — the
/// execution planner's peak-bytes-per-step measurement
/// (`splitmed_workspace_step_peak_bytes`). Null while no session is active.
[[nodiscard]] Gauge* workspace_step_peak_gauge();

/// Pre-registered event-queue-depth gauge (frames in flight across every
/// inbox), sampled after every EventScheduler delivery and at round
/// boundaries — the intra-round arrival-queue depth, not just its value at
/// the boundary. Same single-atomic-load discipline as the gemm counters.
/// Null while no session is active.
[[nodiscard]] Gauge* event_queue_depth_gauge();

/// Installs a protocol-kind pretty-namer (core::msg_kind_name, injected by
/// the trainer so this library stays below core/). Used for trace args and
/// metric labels; without one kinds render as "kind<N>".
void set_kind_namer(std::function<std::string(std::uint32_t)> namer);
/// "activation", "logits", ... or "kind<N>" without an installed namer.
[[nodiscard]] std::string kind_name(std::uint32_t kind);

/// Records the failure on every active channel: an instant trace event, an
/// error counter, a flight-recorder note, and a flight-recorder dump (to
/// the configured flight_dump_path, else to the error log). Called from
/// ProtocolError / SerializationError throw paths so a failed run leaves an
/// event log of its last moments. No-op while no session is active.
void postmortem(const std::string& reason);

/// RAII installer/exporter. Constructing with config.enabled == false is a
/// cheap no-op session (active() == false) so call sites need no branches.
class ObsSession {
 public:
  explicit ObsSession(const ObsConfig& config);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  [[nodiscard]] bool active() const { return installed_; }
  [[nodiscard]] const ObsConfig& config() const { return config_; }

  /// Injects the simulated-time source into the trace recorder and the
  /// flight recorder notes (normally the trainer's network clock).
  void set_sim_source(std::function<double()> source);

  /// Writes the configured trace/metrics files now (also done on
  /// destruction; flush() exists so benches can export mid-run).
  void flush();

  /// Uninstalls the global accessors, exports all configured files, and
  /// releases the single-session slot — everything the destructor does, on
  /// demand. After close() the session records nothing more (active() is
  /// false); benches use this to stop recording before unrelated work runs
  /// in the same scope. Idempotent.
  void close();

 private:
  ObsConfig config_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<CriticalPathAnalyzer> attribution_;
  bool installed_ = false;
};

/// Flight-recorder note helper: formats and records only when the flight
/// recorder is active. `sim_s < 0` = no sim timestamp.
void flight_note(double sim_s, const std::string& what);

}  // namespace splitmed::obs
