// Scaling extension: how the round engine behaves as the number of
// geo-distributed platforms K grows into the thousands. For each K the sweep
// runs the event-driven schedules end-to-end through the simulated hospital
// WAN and reports, per round: protocol steps driven, wire bytes, simulated
// WAN seconds, and host wall milliseconds (the scheduler's own cost).
//
// Two rows per K:
//   overlapped  — every platform steps every round (a full drain barrier);
//                 work per round is O(K), so wall ms/round grows with K.
//   bounded(S1) — bounded staleness with participation ~ 32/K, i.e. a fixed
//                 number of ACTIVE platforms regardless of K. Wall ms/round
//                 staying near-flat while K grows 256x is the event-driven
//                 scheduler's point: cost scales with active events, not
//                 with the platform count.
//
// Flags:
//   --max-k N      largest K in the sweep (default 4096)
//   --rounds N     rounds per run (default 5)
//   --smoke        CI mode: single K=1000 sweep point, 3 rounds
//   --json-out F   machine-readable rows for scripts/bench_scaling.py
//   --codec NAME   wire codec for activation/cut-grad payloads (f32/f16/i8)
//   --attribution-out F  per-round critical-path attribution JSONL, one file
//                  per sweep row (suffixed _k<K>_<schedule>); render with
//                  scripts/trace_report.py
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/format.hpp"
#include "src/common/stopwatch.hpp"
#include "src/common/table.hpp"

namespace {

using namespace splitmed;
using namespace splitmed::bench;

constexpr std::int64_t kClasses = 4;
constexpr std::int64_t kImage = 8;
/// Target active platforms per round for the bounded-staleness rows.
constexpr std::int64_t kActiveTarget = 32;

struct Row {
  std::int64_t k = 0;
  std::string schedule;
  double participation = 1.0;
  double steps_per_round = 0.0;
  double bytes_per_round = 0.0;
  double sim_s_per_round = 0.0;
  double wall_ms_per_round = 0.0;
};

/// "attr.jsonl" + k=256, tag "overlapped" -> "attr_k256_overlapped.jsonl":
/// every sweep row is its own training run (and ObsSession).
std::string attribution_path(const std::string& base, std::int64_t k,
                             const char* tag) {
  if (base.empty()) return base;
  const std::string suffix = "_k" + std::to_string(k) + "_" + tag;
  const std::size_t dot = base.rfind('.');
  if (dot == std::string::npos || dot == 0) return base + suffix;
  return base.substr(0, dot) + suffix + base.substr(dot);
}

Row run_one(const data::Dataset& train, const data::Dataset& test,
            std::int64_t k, std::int64_t rounds, std::int64_t staleness_bound,
            double participation, const char* label, WireCodec codec,
            const std::string& attribution_out) {
  Rng prng(3);
  const auto partition = data::partition_iid(train.size(), k, prng);

  core::SplitConfig cfg;
  cfg.codec = codec;
  // One example per platform per round: per-platform payload stays fixed, so
  // bytes/round isolates the K-dependence of the protocol itself.
  cfg.total_batch = k;
  cfg.rounds = rounds;
  cfg.eval_every = rounds;
  cfg.eval_batch = 16;
  cfg.sgd = comparison_sgd();
  cfg.schedule = core::Schedule::kBoundedStaleness;
  cfg.staleness_bound = staleness_bound;
  cfg.participation = participation;
  if (!attribution_out.empty()) {
    cfg.obs.enabled = true;
    cfg.obs.attribution_path = attribution_out;
  }

  core::SplitTrainer trainer(mini_builder("mlp", kClasses, kImage), train,
                             partition, test, cfg);
  Stopwatch wall;
  const auto report = trainer.run();
  const double run_ms = wall.milliseconds();
  // run() evaluated exactly once, at the final round (eval_every == rounds):
  // K composite-model test passes, identical work under every schedule.
  // Re-measure that eval now — same fully-warm state as the in-run one —
  // and subtract it so the wall column isolates the round engine.
  Stopwatch eval_watch;
  (void)trainer.evaluate();
  const double eval_ms = eval_watch.milliseconds();

  Row row;
  row.k = k;
  row.schedule = label;
  row.participation = participation;
  // 4 protocol messages per platform step; eval moves no frames.
  row.steps_per_round =
      static_cast<double>(trainer.network().stats().total_messages()) /
      (4.0 * static_cast<double>(rounds));
  row.bytes_per_round = static_cast<double>(report.total_bytes) /
                        static_cast<double>(rounds);
  row.sim_s_per_round = report.total_sim_seconds / static_cast<double>(rounds);
  row.wall_ms_per_round =
      std::max(0.0, run_ms - eval_ms) / static_cast<double>(rounds);
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                std::int64_t rounds) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return;
  }
  out << "{\n  \"rounds\": " << rounds << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"k\": " << r.k << ", \"schedule\": \"" << r.schedule
        << "\", \"participation\": " << r.participation
        << ", \"steps_per_round\": " << r.steps_per_round
        << ", \"bytes_per_round\": " << r.bytes_per_round
        << ", \"sim_s_per_round\": " << r.sim_s_per_round
        << ", \"wall_ms_per_round\": " << r.wall_ms_per_round << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << rows.size() << " rows to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t max_k = 4096;
  std::int64_t rounds = 5;
  bool smoke = false;
  std::string json_out;
  std::string attribution_out;
  WireCodec codec = WireCodec::kF32;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-k" && i + 1 < argc) {
      max_k = std::stoll(argv[++i]);
    } else if (arg == "--rounds" && i + 1 < argc) {
      rounds = std::stoll(argv[++i]);
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg == "--attribution-out" && i + 1 < argc) {
      attribution_out = argv[++i];
    } else if (arg == "--codec" && i + 1 < argc) {
      codec = parse_wire_codec(argv[++i]);
    } else {
      std::cerr << "usage: platform_scaling [--max-k N] [--rounds N] "
                   "[--smoke] [--json-out FILE] [--attribution-out FILE] "
                   "[--codec f32|f16|i8]\n";
      return 2;
    }
  }

  std::vector<std::int64_t> ks;
  if (smoke) {
    ks = {1000};
    rounds = 3;
  } else {
    for (std::int64_t k = 16; k <= max_k; k *= 4) ks.push_back(k);
    if (ks.empty() || ks.back() != max_k) ks.push_back(max_k);
  }

  std::cout << "=== Event-driven scheduler scaling with platform count ("
            << rounds << " rounds, heterogeneous hospital WAN) ===\n\n";

  // One dataset sized for the largest K (every platform needs >= 1 example);
  // shared across rows so only K and the schedule vary.
  const std::int64_t train_size = std::max<std::int64_t>(512, ks.back());
  const auto train =
      make_cifar(train_size, kClasses, 42, kImage, 0, /*noise_stddev=*/0.4F);
  const auto test = make_cifar(16, kClasses, 42, kImage,
                               /*index_offset=*/train_size,
                               /*noise_stddev=*/0.4F);

  Table table({"K", "schedule", "steps/round", "bytes/round", "sim s/round",
               "wall ms/round"});
  std::vector<Row> rows;
  for (const std::int64_t k : ks) {
    // Staleness bound 0: every round is a full drain barrier (overlapped).
    rows.push_back(run_one(train, test, k, rounds, /*staleness_bound=*/0,
                           1.0, "overlapped", codec,
                           attribution_path(attribution_out, k,
                                            "overlapped")));
    // Fixed active set: ~kActiveTarget platforms sampled per round, late
    // completions fold in within one round of staleness.
    const double part =
        k <= kActiveTarget
            ? 1.0
            : static_cast<double>(kActiveTarget) / static_cast<double>(k);
    rows.push_back(run_one(train, test, k, rounds, /*staleness_bound=*/1, part,
                           "bounded(S=1)", codec,
                           attribution_path(attribution_out, k, "bounded")));
    for (std::size_t i = rows.size() - 2; i < rows.size(); ++i) {
      const Row& r = rows[i];
      table.add_row({std::to_string(r.k), r.schedule,
                     format_fixed(r.steps_per_round, 1),
                     format_bytes(static_cast<std::uint64_t>(r.bytes_per_round)),
                     format_fixed(r.sim_s_per_round, 3),
                     format_fixed(r.wall_ms_per_round, 2)});
    }
  }
  table.print(std::cout);
  std::cout
      << "\nreading: overlapped rows drive K steps every round, so bytes, "
         "wall time, and simulated WAN time all grow linearly in K (overlap "
         "hides the uploads, but the shared server body still applies the K "
         "minibatch updates one after another — round-robin split learning). "
         "The bounded-staleness rows hold the ACTIVE set fixed (~"
      << kActiveTarget << " platforms/round): wall ms/round stays near-flat "
         "as K grows, because the event-driven scheduler's per-round cost is "
         "O(active events + log K), never O(K) polling.\n"
      << std::endl;

  if (!json_out.empty()) write_json(json_out, rows, rounds);
  return 0;
}
