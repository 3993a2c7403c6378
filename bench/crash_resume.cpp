// Crash-injection harness for the full-state checkpoint (docs/CHECKPOINT.md).
//
// Runs one golden (uninterrupted) split-training run, then replays the same
// configuration under adversarial "kills" — a crash right after a save, a
// crash mid-round (work since the last checkpoint lost), a crash DURING a
// save (simulated by truncating the newest manifest), and the same under WAN
// fault injection — and verifies that every recovered run reproduces the
// golden run's wire-byte series and loss/accuracy curves EXACTLY (bitwise
// doubles, not tolerances). A crash is simulated by destroying the trainer:
// in-process state dies, only the checkpoint directory survives, exactly
// what a real kill -9 leaves behind.
//
//   build/bench/crash_resume [--rounds=12] [--every=4] [--dir=...] [--keep]
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/flags.hpp"
#include "src/core/checkpoint.hpp"
#include "src/data/partition.hpp"

namespace splitmed::bench {
namespace {

namespace fs = std::filesystem;

struct HarnessConfig {
  std::int64_t rounds = 12;
  std::int64_t every = 4;  // checkpoint cadence
  std::string dir = "crash_resume_scratch";
  bool keep = false;
};

struct Scenario {
  std::string name;
  bool passed = false;
  std::string detail;
};

core::SplitConfig train_config(std::int64_t rounds, bool faulted) {
  core::SplitConfig cfg;
  cfg.total_batch = 12;
  cfg.rounds = rounds;
  cfg.eval_every = 1;  // per-round curve points = per-round comparison grid
  cfg.sgd.learning_rate = 0.02F;
  cfg.sgd.momentum = 0.5F;
  cfg.seed = 123;
  if (faulted) {
    cfg.faults.drop_rate = 0.05;
    cfg.faults.duplicate_rate = 0.05;
    cfg.faults.corrupt_rate = 0.05;
    cfg.faults.delay_spike_rate = 0.02;
    cfg.faults.delay_spike_sec = 2.0;
    cfg.recovery.timeout_sec = 5.0;
    cfg.recovery.backoff = 1.0;
    cfg.recovery.max_retries = 2;
  }
  return cfg;
}

metrics::TrainReport run(const core::SplitConfig& cfg) {
  const auto train = make_cifar(96, 4, 42, /*image_size=*/8, 0,
                                /*noise_stddev=*/0.1F);
  const auto test = make_cifar(32, 4, 42, /*image_size=*/8,
                               /*index_offset=*/96, /*noise_stddev=*/0.1F);
  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  core::SplitTrainer trainer(mini_builder("mlp", 4, 8), train, partition,
                             test, cfg);
  return trainer.run();
}

/// Bitwise curve comparison; returns a diff description ("" = identical).
std::string compare(const metrics::TrainReport& golden,
                    const metrics::TrainReport& got) {
  if (golden.curve.size() != got.curve.size()) {
    return "curve has " + std::to_string(got.curve.size()) + " points, golden " +
           std::to_string(golden.curve.size());
  }
  for (std::size_t i = 0; i < golden.curve.size(); ++i) {
    const auto& g = golden.curve[i];
    const auto& r = got.curve[i];
    if (g.cumulative_bytes != r.cumulative_bytes) {
      return "byte series diverges at point " + std::to_string(i);
    }
    if (g.train_loss != r.train_loss || g.test_accuracy != r.test_accuracy ||
        g.sim_seconds != r.sim_seconds) {
      return "loss/accuracy/time fingerprint diverges at point " +
             std::to_string(i);
    }
  }
  if (golden.final_accuracy != got.final_accuracy) {
    return "final accuracy differs";
  }
  return "";
}

void truncate_file(const fs::path& path, std::size_t keep_fraction_percent) {
  std::vector<char> image;
  {
    std::ifstream in(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(image.data(), static_cast<std::streamsize>(
                              image.size() * keep_fraction_percent / 100));
}

/// Crash scenario: train `crash_after` rounds with checkpoints, destroy the
/// trainer, resume from `dir`, finish, compare against golden.
Scenario crash_and_resume(const std::string& name, const HarnessConfig& hc,
                          const metrics::TrainReport& golden, bool faulted,
                          std::int64_t crash_after,
                          const std::function<void(const fs::path&)>& sabotage) {
  Scenario s{name, false, {}};
  const fs::path dir = fs::path(hc.dir) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    auto cfg = train_config(crash_after, faulted);
    cfg.checkpoint_every = hc.every;
    cfg.checkpoint_dir = dir.string();
    // The flight recorder rides along on every crash run: when the trainer
    // dies (or a ProtocolError fires first), the last protocol events land
    // next to the checkpoints as a post-mortem. Observability is bitwise
    // inert, so the recovered curves still compare against an
    // un-instrumented golden run.
    cfg.obs.enabled = true;
    cfg.obs.flight_dump_path = (dir / "postmortem_kill.log").string();
    (void)run(cfg);  // the trainer dies here — the "kill"
  }
  if (sabotage) sabotage(dir);
  auto cfg = train_config(hc.rounds, faulted);
  cfg.resume_from = dir.string();
  cfg.obs.enabled = true;
  cfg.obs.flight_dump_path = (dir / "postmortem_resume.log").string();
  const auto resumed = run(cfg);
  s.detail = compare(golden, resumed);
  s.passed = s.detail.empty();
  if (!hc.keep) fs::remove_all(dir);
  return s;
}

int harness_main(const HarnessConfig& hc) {
  std::cout << "=== crash/resume harness: " << hc.rounds
            << " rounds, checkpoint every " << hc.every << " ===\n"
            << "every scenario must reproduce the uninterrupted run's byte\n"
               "series and curves bitwise after recovery\n\n";

  const auto golden = run(train_config(hc.rounds, false));
  const auto golden_faulted = run(train_config(hc.rounds, true));
  std::vector<Scenario> scenarios;

  // Kill immediately after a completed save: nothing is lost, the resumed
  // run continues from the exact round the checkpoint stamped.
  const std::int64_t last_save = (hc.rounds / hc.every) * hc.every;
  scenarios.push_back(crash_and_resume("kill_post_save", hc, golden, false,
                                       hc.every, nullptr));

  // Kill mid-round, past the last checkpoint: the rounds since it are lost
  // and RE-EXECUTED on resume — and must replay to the same bytes.
  scenarios.push_back(crash_and_resume(
      "kill_mid_round", hc, golden, false,
      std::min<std::int64_t>(hc.every + hc.every / 2 + 1, hc.rounds),
      nullptr));

  // Kill DURING the save of the newest checkpoint: its manifest is torn, so
  // recovery must fall back to the previous complete round and still land
  // on the golden curve.
  scenarios.push_back(crash_and_resume(
      "kill_during_save", hc, golden, false, 2 * hc.every,
      [&](const fs::path& dir) {
        truncate_file(dir / core::checkpoint_round_dirname(
                                static_cast<std::uint64_t>(2 * hc.every)) /
                          core::kManifestFile,
                      50);
      }));

  // Manifest never published at all (crash between node files and rename).
  scenarios.push_back(crash_and_resume(
      "manifest_never_landed", hc, golden, false, 2 * hc.every,
      [&](const fs::path& dir) {
        fs::remove(dir / core::checkpoint_round_dirname(
                             static_cast<std::uint64_t>(2 * hc.every)) /
                   core::kManifestFile);
      }));

  // The same post-save kill with WAN fault injection active: in-flight
  // duplicates, the fault Rng, and retransmit accounting all ride along.
  scenarios.push_back(crash_and_resume("kill_post_save_faulted_wan", hc,
                                       golden_faulted, true, hc.every,
                                       nullptr));

  std::cout << std::left << std::setw(28) << "scenario" << "result\n"
            << std::string(44, '-') << "\n";
  bool all = true;
  for (const auto& s : scenarios) {
    std::cout << std::left << std::setw(28) << s.name
              << (s.passed ? "PASS" : "FAIL — " + s.detail) << "\n";
    all &= s.passed;
  }
  std::cout << "\n"
            << (all ? "all scenarios recovered bitwise — crash recovery holds"
                    : "RECOVERY BROKEN: a resumed run diverged from golden")
            << "\n(last checkpointed round in this config: " << last_save
            << ")\n";
  if (hc.keep) {
    std::cout << "post-mortem flight-recorder dumps kept next to each "
                 "scenario's checkpoints (postmortem_kill.log / "
                 "postmortem_resume.log under " << hc.dir << ")\n";
  }
  if (!hc.keep) fs::remove_all(hc.dir);
  return all ? 0 : 1;
}

}  // namespace
}  // namespace splitmed::bench

int main(int argc, char** argv) {
  splitmed::Flags flags(argc, argv);
  splitmed::bench::HarnessConfig hc;
  hc.rounds = flags.get_int("rounds", hc.rounds);
  hc.every = flags.get_int("every", hc.every);
  hc.dir = flags.get_string("dir", hc.dir);
  hc.keep = flags.get_bool("keep", hc.keep);
  flags.validate_no_unknown();
  if (hc.every <= 0 || hc.rounds < hc.every) {
    std::cerr << "need --every > 0 and --rounds >= --every\n";
    return 2;
  }
  return splitmed::bench::harness_main(hc);
}
