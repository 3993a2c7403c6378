// End-to-end crash-recovery guarantees of the full-state checkpoint
// (docs/CHECKPOINT.md):
//
//   * Golden resume — checkpoint, "crash" (discard the trainer), resume in a
//     fresh process image: the completed run's byte series and curves are
//     bit-identical to an uninterrupted run. Exact doubles, no tolerance —
//     resume is replay, not approximation.
//   * Checkpointing is inert — saving every round changes nothing.
//   * A truncated or missing manifest (crash during save) is refused, and
//     the previous complete round remains loadable.
//   * The round-stamped handshake refuses node files from a different round
//     and configs with a different seed.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/checkpoint.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/models/factory.hpp"
#include "src/serial/buffer.hpp"
#include "src/serial/section_file.hpp"

namespace splitmed {
namespace {

namespace fs = std::filesystem;

core::ModelBuilder builder() {
  return [] {
    models::FactoryConfig cfg;
    cfg.name = "mlp";
    cfg.image_size = 8;
    cfg.num_classes = 4;
    return models::build_model(cfg);
  };
}

/// The golden_curve_test configuration — the run whose fingerprint is pinned
/// repo-wide, so "resume matches the uninterrupted run" here also means
/// "resume matches the golden fingerprint".
core::SplitConfig base_config() {
  core::SplitConfig cfg;
  cfg.total_batch = 12;
  cfg.rounds = 10;
  cfg.eval_every = 1;
  cfg.sgd.learning_rate = 0.02F;
  cfg.sgd.momentum = 0.5F;
  cfg.seed = 123;
  return cfg;
}

struct Datasets {
  data::SyntheticCifar train;
  data::SyntheticCifar test;
};

Datasets make_datasets() {
  data::SyntheticCifarOptions opt;
  opt.num_examples = 96;
  opt.num_classes = 4;
  opt.image_size = 8;
  opt.noise_stddev = 0.1F;
  opt.seed = 42;
  data::SyntheticCifar train(opt);
  opt.num_examples = 32;
  opt.index_offset = 96;
  data::SyntheticCifar test(opt);
  return {std::move(train), std::move(test)};
}

data::Partition make_partition(const data::Dataset& train) {
  Rng prng(1);
  return data::partition_iid(train.size(), 3, prng);
}

metrics::TrainReport run_once(const core::SplitConfig& cfg) {
  const Datasets ds = make_datasets();
  core::SplitTrainer trainer(builder(), ds.train, make_partition(ds.train),
                             ds.test, cfg);
  return trainer.run();
}

/// Exact-double curve equality: same binary, same config, so resume must
/// reproduce every bit, not just a quantized fingerprint.
void expect_identical(const metrics::TrainReport& a,
                      const metrics::TrainReport& b) {
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].step, b.curve[i].step) << "point " << i;
    EXPECT_EQ(a.curve[i].cumulative_bytes, b.curve[i].cumulative_bytes)
        << "point " << i;
    EXPECT_EQ(a.curve[i].sim_seconds, b.curve[i].sim_seconds) << "point " << i;
    EXPECT_EQ(a.curve[i].train_loss, b.curve[i].train_loss) << "point " << i;
    EXPECT_EQ(a.curve[i].test_accuracy, b.curve[i].test_accuracy)
        << "point " << i;
  }
  EXPECT_EQ(a.steps_completed, b.steps_completed);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.skipped_steps, b.skipped_steps);
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

TEST(CrashResume, ResumedRunIsBitIdenticalToUninterrupted) {
  const auto golden = run_once(base_config());

  // "Crash" after round 5: train only 5 rounds with a checkpoint at round 5,
  // then throw the trainer away. Nothing survives but the checkpoint files.
  const std::string dir = fresh_dir("crash_resume_golden");
  {
    auto cfg = base_config();
    cfg.rounds = 5;
    cfg.checkpoint_every = 5;
    cfg.checkpoint_dir = dir;
    (void)run_once(cfg);
  }

  // Fresh trainer, fresh datasets — a new process image. Resume and finish.
  auto cfg = base_config();
  cfg.resume_from = dir;
  const Datasets ds = make_datasets();
  core::SplitTrainer trainer(builder(), ds.train, make_partition(ds.train),
                             ds.test, cfg);
  EXPECT_EQ(trainer.next_round(), 6U);
  const auto resumed = trainer.run();

  // The resumed report carries the pre-crash points (restored from the
  // manifest) plus the post-resume points — the full 10-point golden curve.
  expect_identical(golden, resumed);
  fs::remove_all(dir);
}

TEST(CrashResume, CheckpointingEveryRoundIsInert) {
  const auto plain = run_once(base_config());
  const std::string dir = fresh_dir("crash_resume_inert");
  auto cfg = base_config();
  cfg.checkpoint_every = 1;
  cfg.checkpoint_dir = dir;
  const auto checkpointed = run_once(cfg);
  expect_identical(plain, checkpointed);
  // Every round boundary produced a complete checkpoint.
  for (std::uint64_t r = 1; r <= 10; ++r) {
    EXPECT_TRUE(fs::exists(fs::path(dir) / core::checkpoint_round_dirname(r) /
                           core::kManifestFile))
        << "round " << r;
  }
  fs::remove_all(dir);
}

TEST(CrashResume, ResumeWorksUnderWanFaultInjection) {
  // Faulted runs exercise the recovery protocol, the fault Rng, and the
  // retransmit accounting — all of which must survive the checkpoint too.
  auto faulted = base_config();
  faulted.faults.drop_rate = 0.05;
  faulted.faults.duplicate_rate = 0.05;
  faulted.faults.corrupt_rate = 0.05;
  faulted.faults.delay_spike_rate = 0.02;
  faulted.faults.delay_spike_sec = 2.0;
  faulted.recovery.timeout_sec = 5.0;
  faulted.recovery.backoff = 1.0;
  faulted.recovery.max_retries = 2;
  const auto golden = run_once(faulted);

  const std::string dir = fresh_dir("crash_resume_faulted");
  {
    auto cfg = faulted;
    cfg.rounds = 5;
    cfg.checkpoint_every = 5;
    cfg.checkpoint_dir = dir;
    (void)run_once(cfg);
  }
  auto cfg = faulted;
  cfg.resume_from = dir;
  const auto resumed = run_once(cfg);
  expect_identical(golden, resumed);
  fs::remove_all(dir);
}

TEST(CrashResume, TruncatedManifestFallsBackToPreviousRound) {
  const std::string dir = fresh_dir("crash_resume_truncated");
  {
    auto cfg = base_config();
    cfg.checkpoint_every = 5;
    cfg.checkpoint_dir = dir;
    (void)run_once(cfg);  // leaves round_000005 and round_000010
  }
  const fs::path round5 = fs::path(dir) / core::checkpoint_round_dirname(5);
  const fs::path round10 = fs::path(dir) / core::checkpoint_round_dirname(10);
  ASSERT_TRUE(fs::exists(round5 / core::kManifestFile));
  ASSERT_TRUE(fs::exists(round10 / core::kManifestFile));

  // Simulate a crash DURING the round-10 save: truncate its manifest to half.
  const fs::path manifest10 = round10 / core::kManifestFile;
  std::vector<char> image;
  {
    std::ifstream in(manifest10, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(manifest10, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size() / 2));
  }

  // The torn round is refused outright...
  {
    const Datasets ds = make_datasets();
    auto cfg = base_config();
    core::SplitTrainer trainer(builder(), ds.train, make_partition(ds.train),
                               ds.test, cfg);
    EXPECT_THROW(trainer.load_checkpoint(round10.string()),
                 SerializationError);
    // ...and the refusal left the trainer untouched: it still runs fresh.
    EXPECT_EQ(trainer.next_round(), 1U);
  }

  // ...and directory scanning falls back to the previous complete round.
  const auto found = core::find_resumable_checkpoint(dir);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, round5.string());

  {
    const Datasets ds = make_datasets();
    auto cfg = base_config();
    cfg.resume_from = dir;
    core::SplitTrainer trainer(builder(), ds.train, make_partition(ds.train),
                               ds.test, cfg);
    EXPECT_EQ(trainer.next_round(), 6U);
  }

  // Same story when the manifest never landed at all (crash before rename).
  fs::remove(manifest10);
  const auto refound = core::find_resumable_checkpoint(dir);
  ASSERT_TRUE(refound.has_value());
  EXPECT_EQ(*refound, round5.string());
  fs::remove_all(dir);
}

TEST(CrashResume, MismatchedRoundPeerIsRefused) {
  const std::string dir = fresh_dir("crash_resume_mismatch");
  {
    auto cfg = base_config();
    cfg.checkpoint_every = 5;
    cfg.checkpoint_dir = dir;
    (void)run_once(cfg);
  }
  const fs::path round5 = fs::path(dir) / core::checkpoint_round_dirname(5);
  const fs::path round10 = fs::path(dir) / core::checkpoint_round_dirname(10);

  // A round-5 platform file smuggled into the round-10 checkpoint: its meta
  // stamp disagrees with the manifest and the whole load is refused.
  fs::copy_file(round5 / core::checkpoint_platform_filename(0),
                round10 / core::checkpoint_platform_filename(0),
                fs::copy_options::overwrite_existing);
  const Datasets ds = make_datasets();
  auto cfg = base_config();
  core::SplitTrainer trainer(builder(), ds.train, make_partition(ds.train),
                             ds.test, cfg);
  EXPECT_THROW(trainer.load_checkpoint(round10.string()), ProtocolError);
  EXPECT_EQ(trainer.next_round(), 1U);
  fs::remove_all(dir);
}

TEST(CrashResume, HostileReportCurveCountIsRefused) {
  const std::string dir = fresh_dir("crash_resume_hostile_report");
  {
    auto cfg = base_config();
    cfg.rounds = 5;
    cfg.checkpoint_every = 5;
    cfg.checkpoint_dir = dir;
    (void)run_once(cfg);
  }
  const fs::path round5 = fs::path(dir) / core::checkpoint_round_dirname(5);
  const std::string manifest_path = (round5 / core::kManifestFile).string();

  // Re-publish the manifest, CRCs valid, with a 'report' section whose
  // curve-point count (the u32 after the protocol and model strings)
  // claims 0xFFFFFFFF points — far more than the section's bytes can hold.
  const SectionFileReader manifest =
      SectionFileReader::read_file(manifest_path);
  SectionFileWriter forged;
  for (const Section& section : manifest.sections()) {
    std::vector<std::uint8_t> payload = section.payload;
    if (section.name == "report") {
      BufferReader r(payload);
      (void)r.read_string();
      (void)r.read_string();
      for (std::size_t i = 0; i < 4; ++i) payload[r.pos() + i] = 0xFF;
    }
    forged.add(section.name, std::move(payload));
  }
  forged.write_file(manifest_path);

  const Datasets ds = make_datasets();
  auto cfg = base_config();
  core::SplitTrainer trainer(builder(), ds.train, make_partition(ds.train),
                             ds.test, cfg);
  const double clock_before = trainer.network().clock().now();
  EXPECT_THROW(trainer.load_checkpoint(round5.string()), SerializationError);
  // Refused before any state was applied.
  EXPECT_EQ(trainer.next_round(), 1U);
  EXPECT_EQ(trainer.network().clock().now(), clock_before);
  fs::remove_all(dir);
}

TEST(CrashResume, DamagedNodeStateLeavesTrainerUntouched) {
  // A node file whose 'state' section is cut to half, CRCs re-sealed, passes
  // every meta check and fails only while its state is applied. The refused
  // load leaves the trainer as it was: nothing has moved on its network, and
  // run() still reproduces the uninterrupted golden curve.
  const auto golden = run_once(base_config());
  for (const std::string& file :
       {std::string(core::kServerFile), core::checkpoint_platform_filename(1)}) {
    SCOPED_TRACE(file);
    const std::string dir = fresh_dir("crash_resume_damaged_state");
    {
      auto cfg = base_config();
      cfg.rounds = 5;
      cfg.checkpoint_every = 5;
      cfg.checkpoint_dir = dir;
      (void)run_once(cfg);
    }
    const fs::path round5 = fs::path(dir) / core::checkpoint_round_dirname(5);
    const std::string path = (round5 / file).string();
    const SectionFileReader node = SectionFileReader::read_file(path);
    SectionFileWriter forged;
    for (const Section& section : node.sections()) {
      std::vector<std::uint8_t> payload = section.payload;
      if (section.name == "state") payload.resize(payload.size() / 2);
      forged.add(section.name, std::move(payload));
    }
    forged.write_file(path);

    const Datasets ds = make_datasets();
    core::SplitTrainer trainer(builder(), ds.train, make_partition(ds.train),
                               ds.test, base_config());
    EXPECT_THROW(trainer.load_checkpoint(round5.string()), SerializationError);
    EXPECT_EQ(trainer.next_round(), 1U);
    EXPECT_EQ(trainer.network().clock().now(), 0.0);
    EXPECT_EQ(trainer.network().stats().total_bytes(), 0U);
    expect_identical(golden, trainer.run());
    fs::remove_all(dir);
  }
}

TEST(CrashResume, MismatchedConfigIsRefused) {
  const std::string dir = fresh_dir("crash_resume_config");
  {
    auto cfg = base_config();
    cfg.rounds = 5;
    cfg.checkpoint_every = 5;
    cfg.checkpoint_dir = dir;
    (void)run_once(cfg);
  }
  const Datasets ds = make_datasets();
  auto cfg = base_config();
  cfg.seed = 999;  // not the seed the checkpoint was trained with
  cfg.resume_from = dir;
  EXPECT_THROW(core::SplitTrainer(builder(), ds.train,
                                  make_partition(ds.train), ds.test, cfg),
               SerializationError);
  fs::remove_all(dir);
}

TEST(CrashResume, ResumeFromNowhereIsALoudError) {
  auto cfg = base_config();
  cfg.resume_from = fresh_dir("crash_resume_empty");  // does not exist
  const Datasets ds = make_datasets();
  EXPECT_THROW(core::SplitTrainer(builder(), ds.train,
                                  make_partition(ds.train), ds.test, cfg),
               Error);
}

TEST(CrashResume, CheckpointConfigIsValidated) {
  const Datasets ds = make_datasets();
  auto cfg = base_config();
  cfg.checkpoint_every = 3;  // no checkpoint_dir
  EXPECT_THROW(core::SplitTrainer(builder(), ds.train,
                                  make_partition(ds.train), ds.test, cfg),
               Error);
  cfg.checkpoint_every = -1;
  cfg.checkpoint_dir = "somewhere";
  EXPECT_THROW(core::SplitTrainer(builder(), ds.train,
                                  make_partition(ds.train), ds.test, cfg),
               Error);
}

}  // namespace
}  // namespace splitmed
