// Integration tests for core::SplitTrainer: learning progress, determinism,
// byte budgets, imbalance policy, and the L1-sync extension.
#include <gtest/gtest.h>

#include "src/common/thread_pool.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/data/synthetic_medical.hpp"
#include "src/models/factory.hpp"

namespace splitmed {
namespace {

data::SyntheticCifar make_dataset(std::int64_t n, std::uint64_t seed = 42) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = n;
  opt.num_classes = 4;
  opt.image_size = 8;
  opt.noise_stddev = 0.1F;
  opt.seed = seed;
  return data::SyntheticCifar(opt);
}

core::ModelBuilder builder() {
  return [] {
    models::FactoryConfig cfg;
    cfg.name = "mlp";
    cfg.image_size = 8;
    cfg.num_classes = 4;
    return models::build_model(cfg);
  };
}

core::SplitConfig base_config() {
  core::SplitConfig cfg;
  cfg.total_batch = 16;
  cfg.rounds = 40;
  cfg.eval_every = 20;
  // Gentle settings: the server applies K sequential updates per round, so
  // hot learning rates diverge (covered by the Fig. 4 benches instead).
  cfg.sgd.learning_rate = 0.02F;
  cfg.sgd.momentum = 0.5F;
  return cfg;
}

TEST(SplitTrainer, LearnsAboveChance) {
  const auto train = make_dataset(128);
  const auto test = make_dataset(32, /*seed=*/42);  // same distribution
  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 4, prng);
  core::SplitTrainer trainer(builder(), train, partition, test,
                             base_config());
  const auto report = trainer.run();
  EXPECT_EQ(report.protocol, "split");
  EXPECT_EQ(report.steps_completed, 40);
  // 4 classes -> chance 25%; the synthetic task is easy.
  EXPECT_GT(report.final_accuracy, 0.5);
  // Loss decreased from the first to the last eval point.
  EXPECT_LT(report.curve.back().train_loss, report.curve.front().train_loss);
}

TEST(SplitTrainer, DeterministicAcrossRuns) {
  const auto train = make_dataset(64);
  const auto test = make_dataset(16);
  Rng p1(3), p2(3);
  const auto part1 = data::partition_iid(train.size(), 3, p1);
  const auto part2 = data::partition_iid(train.size(), 3, p2);
  auto cfg = base_config();
  cfg.rounds = 10;
  cfg.eval_every = 5;
  core::SplitTrainer t1(builder(), train, part1, test, cfg);
  core::SplitTrainer t2(builder(), train, part2, test, cfg);
  const auto r1 = t1.run();
  const auto r2 = t2.run();
  ASSERT_EQ(r1.curve.size(), r2.curve.size());
  for (std::size_t i = 0; i < r1.curve.size(); ++i) {
    EXPECT_EQ(r1.curve[i].train_loss, r2.curve[i].train_loss);
    EXPECT_EQ(r1.curve[i].test_accuracy, r2.curve[i].test_accuracy);
    EXPECT_EQ(r1.curve[i].cumulative_bytes, r2.curve[i].cumulative_bytes);
  }
  EXPECT_EQ(r1.total_bytes, r2.total_bytes);
  EXPECT_EQ(r1.total_sim_seconds, r2.total_sim_seconds);
}

TEST(SplitTrainer, PartialParticipationLossIgnoresIdlePlatforms) {
  // Regression: with participation < 1 the first-round curve point used to
  // average last_loss() over ALL platforms, mixing the initial
  // last_loss_ = 0 of hospitals that skipped the round into the reported
  // loss and biasing the curve low.
  const auto train = make_dataset(128);
  const auto test = make_dataset(16);
  Rng prng(23);
  const std::size_t platforms = 6;
  const auto partition = data::partition_iid(train.size(), platforms, prng);
  auto cfg = base_config();
  cfg.rounds = 1;
  cfg.eval_every = 1;
  cfg.participation = 0.5;
  core::SplitTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  ASSERT_EQ(report.curve.size(), 1U);

  // Reconstruct both definitions from the platform state after round 1.
  double participant_sum = 0.0, all_sum = 0.0;
  std::size_t participant_count = 0;
  for (std::size_t p = 0; p < platforms; ++p) {
    all_sum += trainer.platform(p).last_loss();
    if (trainer.platform(p).steps_completed() > 0) {
      participant_sum += trainer.platform(p).last_loss();
      ++participant_count;
    }
  }
  ASSERT_GT(participant_count, 0U);
  // The seed must leave at least one platform idle for the regression to
  // bite; seed 23 with participation 0.5 over 6 platforms does.
  ASSERT_LT(participant_count, platforms);

  const double fixed = participant_sum / static_cast<double>(participant_count);
  const double biased = all_sum / static_cast<double>(platforms);
  EXPECT_DOUBLE_EQ(report.curve[0].train_loss, fixed);
  EXPECT_NE(report.curve[0].train_loss, biased);  // old definition fails
}

TEST(SplitTrainer, PartialParticipationLossAveragesAllOnceWarm) {
  // Once every platform has stepped at least once, the reported loss is the
  // all-platform average again (stale-but-real losses, no zero bias).
  const auto train = make_dataset(128);
  const auto test = make_dataset(16);
  Rng prng(23);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  auto cfg = base_config();
  cfg.rounds = 40;
  cfg.eval_every = 40;
  cfg.participation = 0.5;
  core::SplitTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  ASSERT_EQ(report.curve.size(), 1U);
  double all_sum = 0.0;
  for (std::size_t p = 0; p < 3; ++p) {
    ASSERT_GT(trainer.platform(p).steps_completed(), 0);
    all_sum += trainer.platform(p).last_loss();
  }
  EXPECT_DOUBLE_EQ(report.curve[0].train_loss, all_sum / 3.0);
}

TEST(SplitTrainer, CurvesAndBytesInvariantToThreadCount) {
  // The determinism contract (docs/PROTOCOL.md): --threads only changes
  // wall-clock, never wire bytes, loss curves, or accuracy.
  const auto train = make_dataset(64);
  const auto test = make_dataset(16);
  auto cfg = base_config();
  cfg.rounds = 6;
  cfg.eval_every = 3;
  cfg.participation = 0.7;

  metrics::TrainReport reports[2];
  for (int run = 0; run < 2; ++run) {
    cfg.threads = run == 0 ? 1 : 4;
    Rng prng(3);
    const auto partition = data::partition_iid(train.size(), 3, prng);
    core::SplitTrainer trainer(builder(), train, partition, test, cfg);
    reports[run] = trainer.run();
  }
  set_global_threads(0);
  ASSERT_EQ(reports[0].curve.size(), reports[1].curve.size());
  for (std::size_t i = 0; i < reports[0].curve.size(); ++i) {
    EXPECT_EQ(reports[0].curve[i].train_loss, reports[1].curve[i].train_loss);
    EXPECT_EQ(reports[0].curve[i].test_accuracy,
              reports[1].curve[i].test_accuracy);
    EXPECT_EQ(reports[0].curve[i].cumulative_bytes,
              reports[1].curve[i].cumulative_bytes);
    EXPECT_EQ(reports[0].curve[i].sim_seconds,
              reports[1].curve[i].sim_seconds);
  }
  EXPECT_EQ(reports[0].total_bytes, reports[1].total_bytes);
  EXPECT_EQ(reports[0].total_sim_seconds, reports[1].total_sim_seconds);
}

TEST(SplitTrainer, ByteBudgetStopsEarly) {
  const auto train = make_dataset(64);
  const auto test = make_dataset(16);
  Rng prng(5);
  const auto partition = data::partition_iid(train.size(), 2, prng);
  auto cfg = base_config();
  cfg.rounds = 1000;

  // First measure one round's bytes, then budget for ~3 rounds.
  auto probe_cfg = cfg;
  probe_cfg.rounds = 1;
  probe_cfg.eval_every = 1;
  core::SplitTrainer probe(builder(), train, partition, test, probe_cfg);
  const auto one_round_bytes = probe.run().total_bytes;

  cfg.byte_budget = 3 * one_round_bytes;
  core::SplitTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_EQ(report.steps_completed, 3);
  EXPECT_GE(report.total_bytes, cfg.byte_budget);
  EXPECT_LT(report.total_bytes, cfg.byte_budget + one_round_bytes);
}

TEST(SplitTrainer, ProportionalMinibatchesFollowShards) {
  const auto train = make_dataset(120);
  const auto test = make_dataset(16);
  Rng prng(7);
  const auto partition = data::partition_weighted(
      train.size(), {6.0, 3.0, 1.0}, prng);
  auto cfg = base_config();
  cfg.total_batch = 20;
  cfg.policy = core::MinibatchPolicy::kProportional;
  cfg.rounds = 1;
  cfg.eval_every = 1;
  core::SplitTrainer trainer(builder(), train, partition, test, cfg);
  const auto& mb = trainer.minibatches();
  ASSERT_EQ(mb.size(), 3U);
  EXPECT_EQ(mb[0], 12);
  EXPECT_EQ(mb[1], 6);
  EXPECT_EQ(mb[2], 2);
}

TEST(SplitTrainer, UniformPolicyIgnoresImbalance) {
  const auto train = make_dataset(120);
  const auto test = make_dataset(16);
  Rng prng(7);
  const auto partition = data::partition_weighted(
      train.size(), {6.0, 3.0, 1.0}, prng);
  auto cfg = base_config();
  cfg.total_batch = 21;
  cfg.policy = core::MinibatchPolicy::kUniform;
  cfg.rounds = 1;
  core::SplitTrainer trainer(builder(), train, partition, test, cfg);
  EXPECT_EQ(trainer.minibatches(), (std::vector<std::int64_t>{7, 7, 7}));
}

TEST(SplitTrainer, L1SyncExtensionMovesBytesAndKeepsLearning) {
  const auto train = make_dataset(64);
  const auto test = make_dataset(16);
  Rng prng(9);
  const auto partition = data::partition_iid(train.size(), 2, prng);
  auto cfg = base_config();
  cfg.rounds = 8;
  cfg.eval_every = 4;
  cfg.sync_l1_every = 2;
  core::SplitTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  const auto& stats = trainer.network().stats();
  EXPECT_GT(stats.bytes_for_kind(
                static_cast<std::uint32_t>(core::MsgKind::kL1SyncUp)),
            0U);
  EXPECT_GT(stats.bytes_for_kind(
                static_cast<std::uint32_t>(core::MsgKind::kL1SyncDown)),
            0U);
  // After the final sync, both platforms hold identical L1 weights.
  const auto pa = trainer.platform(0).l1().parameters();
  const auto pb = trainer.platform(1).l1().parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(pa[i]->value[j], pb[i]->value[j]);
    }
  }
  EXPECT_GT(report.final_accuracy, 0.25);
}

TEST(SplitTrainer, SimulatedTimeAdvances) {
  const auto train = make_dataset(32);
  const auto test = make_dataset(8);
  Rng prng(11);
  const auto partition = data::partition_iid(train.size(), 2, prng);
  auto cfg = base_config();
  cfg.rounds = 2;
  cfg.eval_every = 2;
  core::SplitTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_GT(report.total_sim_seconds, 0.0);
}

TEST(SplitTrainer, CustomCutOverridesDefault) {
  const auto train = make_dataset(32);
  const auto test = make_dataset(8);
  Rng prng(15);
  const auto partition = data::partition_iid(train.size(), 2, prng);
  auto cfg = base_config();
  cfg.rounds = 1;
  cfg.cut = 1;  // only Flatten on the platform
  core::SplitTrainer trainer(builder(), train, partition, test, cfg);
  EXPECT_EQ(trainer.platform(0).l1().size(), 1U);
  EXPECT_NO_THROW(trainer.run());
}

TEST(SplitTrainer, RejectsEmptyPartition) {
  const auto train = make_dataset(32);
  const auto test = make_dataset(8);
  auto cfg = base_config();
  EXPECT_THROW(
      core::SplitTrainer(builder(), train, {}, test, cfg),
      InvalidArgument);
  EXPECT_THROW(core::SplitTrainer(builder(), train, {{0, 1}, {}}, test, cfg),
               InvalidArgument);
}


TEST(SplitTrainer, MedicalScansEndToEnd) {
  // The paper's deployment scenario end-to-end: grayscale medical scans,
  // conv model, imbalanced hospitals, heterogeneous WAN.
  data::SyntheticMedicalOptions opt;
  opt.num_examples = 120;
  opt.num_grades = 3;
  opt.image_size = 16;
  opt.noise_stddev = 0.1F;
  const data::SyntheticMedical train_scans(opt);
  opt.index_offset = 120;
  opt.num_examples = 48;
  const data::SyntheticMedical test_scans(opt);

  Rng prng(21);
  const auto partition =
      data::partition_weighted(train_scans.size(), {5.0, 2.0, 1.0}, prng);
  const core::ModelBuilder medical_builder = [] {
    models::FactoryConfig cfg;
    cfg.name = "resnet-mini";
    cfg.in_channels = 1;
    cfg.image_size = 16;
    cfg.num_classes = 3;
    return models::build_model(cfg);
  };
  core::SplitConfig cfg = base_config();
  cfg.total_batch = 12;
  cfg.rounds = 30;
  cfg.eval_every = 30;
  core::SplitTrainer trainer(medical_builder, train_scans, partition,
                             test_scans, cfg);
  const auto report = trainer.run();
  EXPECT_GT(report.final_accuracy, 0.5);  // 3 grades, chance 33%
  EXPECT_GT(report.total_bytes, 0U);
}

}  // namespace
}  // namespace splitmed
