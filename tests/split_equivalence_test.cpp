// THE core correctness property (DESIGN.md): the split protocol is a pure
// refactoring of centralized training. With one platform holding all the
// data, one split protocol step must produce BIT-IDENTICAL parameters to a
// centralized SGD step on the same minibatch. Also verifies that measured
// wire bytes equal the analytic ModelStats prediction.
#include <gtest/gtest.h>

#include <numeric>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/models/factory.hpp"
#include "src/models/model_stats.hpp"
#include "src/nn/loss.hpp"
#include "src/optim/sgd.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed {
namespace {

data::SyntheticCifar make_dataset(std::int64_t n, std::int64_t classes,
                                  std::int64_t size) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = n;
  opt.num_classes = classes;
  opt.image_size = size;
  return data::SyntheticCifar(opt);
}

core::ModelBuilder mlp_builder() {
  return [] {
    models::FactoryConfig cfg;
    cfg.name = "mlp";
    cfg.image_size = 8;
    cfg.num_classes = 4;
    return models::build_model(cfg);
  };
}

core::ModelBuilder resnet_builder() {
  return [] {
    models::FactoryConfig cfg;
    cfg.name = "resnet-mini";
    cfg.image_size = 16;
    cfg.num_classes = 4;
    return models::build_model(cfg);
  };
}

/// Runs `rounds` centralized SGD steps drawing batches exactly as platform 0
/// of a single-platform SplitTrainer would (same loader seed derivation).
models::BuiltModel centralized_reference(
    const core::ModelBuilder& builder,
                                         const data::Dataset& train,
                                         const std::vector<std::int64_t>& shard,
                                         std::int64_t batch,
                                         std::int64_t rounds,
                                         const optim::SgdOptions& sgd,
                                         std::uint64_t seed) {
  models::BuiltModel model = builder();
  optim::Sgd opt(model.net.parameters(), sgd);
  Rng loader_rng(seed);
  data::DataLoader loader(train, shard, batch, loader_rng.split(0),
                          /*drop_last=*/true);
  nn::SoftmaxCrossEntropy loss;
  for (std::int64_t r = 0; r < rounds; ++r) {
    data::Batch b = loader.next_batch();
    model.net.zero_grad();
    const Tensor logits = model.net.forward(b.images, true);
    loss.forward(logits, b.labels);
    model.net.backward(loss.backward());
    opt.step();
  }
  return model;
}

void expect_split_equals_centralized(const core::ModelBuilder& builder,
                                     const data::Dataset& train,
                                     std::int64_t batch, std::int64_t rounds) {
  std::vector<std::int64_t> shard(static_cast<std::size_t>(train.size()));
  std::iota(shard.begin(), shard.end(), 0);

  core::SplitConfig cfg;
  cfg.total_batch = batch;
  cfg.rounds = rounds;
  cfg.eval_every = rounds;
  cfg.sgd.learning_rate = 0.05F;
  cfg.sgd.momentum = 0.9F;
  cfg.seed = 2024;
  const auto test = make_dataset(8, 4, train.image_shape().dim(1));
  core::SplitTrainer trainer(builder, train, {shard}, test, cfg);
  trainer.run();

  models::BuiltModel reference = centralized_reference(
      builder, train, shard, batch, rounds, cfg.sgd, cfg.seed);

  // Reassemble the split model's parameters: L1 from the platform, the rest
  // from the server — must equal the centralized model parameter-for-
  // parameter, bit-identically.
  std::vector<nn::Parameter*> split_params;
  for (nn::Parameter* p : trainer.platform(0).l1().parameters()) {
    split_params.push_back(p);
  }
  for (nn::Parameter* p : trainer.server().body().parameters()) {
    split_params.push_back(p);
  }
  const auto ref_params = reference.net.parameters();
  ASSERT_EQ(split_params.size(), ref_params.size());
  for (std::size_t i = 0; i < ref_params.size(); ++i) {
    EXPECT_EQ(ops::max_abs_diff(split_params[i]->value, ref_params[i]->value),
              0.0F)
        << "parameter " << i << " (" << ref_params[i]->name << ") diverged";
  }
}

TEST(SplitEquivalence, MlpSingleStep) {
  const auto train = make_dataset(32, 4, 8);
  expect_split_equals_centralized(mlp_builder(), train, 8, 1);
}

TEST(SplitEquivalence, MlpMultiStepWithMomentum) {
  const auto train = make_dataset(32, 4, 8);
  expect_split_equals_centralized(mlp_builder(), train, 8, 5);
}

TEST(SplitEquivalence, ResNetWithBatchNorm) {
  const auto train = make_dataset(16, 4, 16);
  expect_split_equals_centralized(resnet_builder(), train, 4, 2);
}

TEST(SplitEquivalence, MeasuredBytesMatchAnalyticModel) {
  const auto train = make_dataset(48, 4, 8);
  const auto test = make_dataset(8, 4, 8);
  Rng prng(7);
  const auto partition = data::partition_zipf(train.size(), 3, 1.0, prng);

  core::SplitConfig cfg;
  cfg.total_batch = 12;
  cfg.rounds = 4;
  cfg.eval_every = 4;
  cfg.seed = 5;
  core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
  const auto report = trainer.run();

  models::BuiltModel model = mlp_builder()();
  auto stats = models::ModelStats::analyze(model);
  const std::uint64_t expected =
      4 * stats.split_step_bytes(trainer.minibatches());
  EXPECT_EQ(report.total_bytes, expected);
  EXPECT_EQ(trainer.network().stats().total_bytes(), expected);
  // 4 messages per platform per round.
  EXPECT_EQ(trainer.network().stats().total_messages(), 4U * 3U * 4U);
}

TEST(SplitEquivalence, ScheduleAndThreadsInvariantBytesAndAccuracy) {
  // The sequential and overlapped (bounded staleness 0) schedules are the
  // same mathematics on the same wire — only sim wall-clock may differ.
  // And neither schedule may react to the substrate thread count. All four
  // (schedule, threads) combinations must report identical byte totals,
  // final accuracy, and loss curves for a 3-platform run.
  const auto train = make_dataset(48, 4, 8);
  const auto test = make_dataset(16, 4, 8);

  std::vector<metrics::TrainReport> reports;
  for (const core::Schedule schedule :
       {core::Schedule::kSequential, core::Schedule::kBoundedStaleness}) {
    for (const int threads : {1, 4}) {
      core::SplitConfig cfg;
      cfg.total_batch = 12;
      cfg.rounds = 4;
      cfg.eval_every = 2;
      cfg.seed = 77;
      cfg.schedule = schedule;
      cfg.staleness_bound = 0;  // bounded staleness drains every round
      cfg.threads = threads;
      Rng prng(31);
      const auto partition = data::partition_iid(train.size(), 3, prng);
      core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
      reports.push_back(trainer.run());
      EXPECT_EQ(trainer.network().stats().total_bytes(),
                reports.front().total_bytes);
    }
  }
  set_global_threads(0);

  const auto& ref = reports.front();
  ASSERT_EQ(ref.curve.size(), 2U);
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].total_bytes, ref.total_bytes);
    ASSERT_EQ(reports[i].curve.size(), ref.curve.size());
    EXPECT_EQ(reports[i].final_accuracy, ref.final_accuracy);
    for (std::size_t j = 0; j < ref.curve.size(); ++j) {
      EXPECT_EQ(reports[i].curve[j].train_loss, ref.curve[j].train_loss);
      EXPECT_EQ(reports[i].curve[j].cumulative_bytes,
                ref.curve[j].cumulative_bytes);
    }
  }
}

TEST(BoundedStaleness, SinglePlatformMatchesSequential) {
  // With one platform the liveness rule (every round folds in at least one
  // completion) forces each step to finish inside its own round — the
  // bounded-staleness engine degenerates to the sequential schedule and must
  // reproduce its curve bitwise.
  const auto train = make_dataset(32, 4, 8);
  const auto test = make_dataset(8, 4, 8);
  std::vector<metrics::TrainReport> reports;
  for (const core::Schedule schedule :
       {core::Schedule::kSequential, core::Schedule::kBoundedStaleness}) {
    core::SplitConfig cfg;
    cfg.total_batch = 8;
    cfg.rounds = 6;
    cfg.eval_every = 3;
    cfg.schedule = schedule;
    Rng prng(11);
    const auto partition = data::partition_iid(train.size(), 1, prng);
    core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
    reports.push_back(trainer.run());
  }
  ASSERT_EQ(reports[0].curve.size(), reports[1].curve.size());
  EXPECT_EQ(reports[0].total_bytes, reports[1].total_bytes);
  EXPECT_EQ(reports[0].final_accuracy, reports[1].final_accuracy);
  for (std::size_t j = 0; j < reports[0].curve.size(); ++j) {
    EXPECT_EQ(reports[0].curve[j].train_loss, reports[1].curve[j].train_loss);
    EXPECT_EQ(reports[0].curve[j].cumulative_bytes,
              reports[1].curve[j].cumulative_bytes);
  }
}

TEST(BoundedStaleness, DeterministicAcrossIdenticalRuns) {
  // The async schedule's only ordering source is the network's (arrival,
  // sequence) order — a pure function of the config. Two identical runs
  // must agree bitwise on every reported number, stragglers and all.
  const auto train = make_dataset(48, 4, 8);
  const auto test = make_dataset(16, 4, 8);
  std::vector<metrics::TrainReport> reports;
  std::vector<std::vector<std::int64_t>> per_platform_steps;
  for (int run = 0; run < 2; ++run) {
    core::SplitConfig cfg;
    cfg.total_batch = 12;
    cfg.rounds = 8;
    cfg.eval_every = 4;
    cfg.schedule = core::Schedule::kBoundedStaleness;
    cfg.staleness_bound = 2;
    cfg.participation = 0.7;  // exercises the double-draw bernoulli path
    cfg.seed = 1234;
    Rng prng(21);
    const auto partition = data::partition_iid(train.size(), 4, prng);
    core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
    reports.push_back(trainer.run());
    std::vector<std::int64_t> steps;
    for (std::size_t p = 0; p < trainer.num_platforms(); ++p) {
      steps.push_back(trainer.platform(p).steps_completed());
    }
    per_platform_steps.push_back(std::move(steps));
  }
  EXPECT_EQ(per_platform_steps[0], per_platform_steps[1]);
  EXPECT_EQ(reports[0].total_bytes, reports[1].total_bytes);
  EXPECT_EQ(reports[0].total_sim_seconds, reports[1].total_sim_seconds);
  ASSERT_EQ(reports[0].curve.size(), reports[1].curve.size());
  for (std::size_t j = 0; j < reports[0].curve.size(); ++j) {
    EXPECT_EQ(reports[0].curve[j].train_loss, reports[1].curve[j].train_loss);
    EXPECT_EQ(reports[0].curve[j].test_accuracy,
              reports[1].curve[j].test_accuracy);
    EXPECT_EQ(reports[0].curve[j].sim_seconds,
              reports[1].curve[j].sim_seconds);
  }
}

TEST(BoundedStaleness, StragglersFoldInWithoutStallingTheRound) {
  // Heterogeneous hospital WAN: the slowest link straggles. Bounded
  // staleness must (a) finish every begun step by the final full drain,
  // (b) never let a platform run two overlapping steps, and (c) spend no
  // more simulated time than the overlapped schedule's full per-round
  // barrier on the same WAN.
  const auto train = make_dataset(48, 4, 8);
  const auto test = make_dataset(16, 4, 8);

  const auto run_with = [&](std::int64_t staleness_bound) {
    core::SplitConfig cfg;
    cfg.total_batch = 12;
    cfg.rounds = 6;
    cfg.eval_every = 6;
    cfg.schedule = core::Schedule::kBoundedStaleness;
    cfg.staleness_bound = staleness_bound;
    Rng prng(13);
    const auto partition = data::partition_iid(train.size(), 4, prng);
    core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
    auto report = trainer.run();
    std::int64_t total_steps = 0;
    for (std::size_t p = 0; p < trainer.num_platforms(); ++p) {
      EXPECT_GE(trainer.platform(p).steps_completed(), 1);
      EXPECT_LE(trainer.platform(p).steps_completed(), cfg.rounds);
      total_steps += trainer.platform(p).steps_completed();
    }
    // Final round is a full drain: 4 messages per completed step, nothing
    // left in flight.
    EXPECT_TRUE(trainer.network().quiescent());
    EXPECT_EQ(trainer.network().stats().total_messages(),
              static_cast<std::uint64_t>(4 * total_steps));
    return report;
  };

  const auto overlapped = run_with(0);
  const auto bounded = run_with(1);
  EXPECT_LE(bounded.total_sim_seconds, overlapped.total_sim_seconds);
  EXPECT_GT(bounded.final_accuracy, 0.0);
}

TEST(SplitEquivalence, PerKindTrafficIsSymmetric) {
  const auto train = make_dataset(32, 4, 8);
  const auto test = make_dataset(8, 4, 8);
  Rng prng(9);
  const auto partition = data::partition_iid(train.size(), 2, prng);

  core::SplitConfig cfg;
  cfg.total_batch = 8;
  cfg.rounds = 3;
  cfg.eval_every = 3;
  core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
  trainer.run();

  const auto& stats = trainer.network().stats();
  // Activation traffic equals cut-grad traffic (same tensors both ways),
  // and logits traffic equals logit-grad traffic.
  EXPECT_EQ(stats.bytes_for_kind(
                static_cast<std::uint32_t>(core::MsgKind::kActivation)),
            stats.bytes_for_kind(
                static_cast<std::uint32_t>(core::MsgKind::kCutGrad)));
  EXPECT_EQ(stats.bytes_for_kind(
                static_cast<std::uint32_t>(core::MsgKind::kLogits)),
            stats.bytes_for_kind(
                static_cast<std::uint32_t>(core::MsgKind::kLogitGrad)));
}

}  // namespace
}  // namespace splitmed
