// Tests for baselines/: sync SGD, FedAvg, cyclic, local-only — learning
// sanity, exact byte accounting against the analytic model, and exact pins
// of every comparator's report.
#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <span>
#include <sstream>

#include "src/baselines/cyclic.hpp"
#include "src/baselines/fedavg.hpp"
#include "src/baselines/local_only.hpp"
#include "src/baselines/sync_sgd.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/models/factory.hpp"
#include "src/models/model_stats.hpp"

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

baselines::BaselineConfig base_config() {
  baselines::BaselineConfig cfg;
  cfg.total_batch = 16;
  cfg.steps = 60;
  cfg.eval_every = 20;
  cfg.sgd.learning_rate = 0.02F;
  cfg.sgd.momentum = 0.5F;
  return cfg;
}

TEST(SyncSgd, LearnsAboveChance) {
  const auto train = make_dataset(128);
  const auto test = make_dataset(32);
  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 4, prng);
  baselines::SyncSgdTrainer trainer(builder(), train, partition, test,
                                    base_config());
  const auto report = trainer.run();
  EXPECT_EQ(report.protocol, "sync-sgd");
  EXPECT_GT(report.final_accuracy, 0.5);
}

TEST(SyncSgd, BytesMatchAnalyticModelExactly) {
  const auto train = make_dataset(64);
  const auto test = make_dataset(16);
  Rng prng(2);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  auto cfg = base_config();
  cfg.steps = 5;
  cfg.eval_every = 5;
  baselines::SyncSgdTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();

  models::BuiltModel model = builder()();
  auto stats = models::ModelStats::analyze(model);
  EXPECT_EQ(report.total_bytes, 5 * stats.syncsgd_step_bytes(3));
  // 2 messages per worker per step.
  EXPECT_EQ(trainer.network().stats().total_messages(), 5U * 3U * 2U);
}

TEST(SyncSgd, ByteBudgetStopsEarly) {
  const auto train = make_dataset(64);
  const auto test = make_dataset(16);
  Rng prng(3);
  const auto partition = data::partition_iid(train.size(), 2, prng);
  models::BuiltModel model = builder()();
  auto stats = models::ModelStats::analyze(model);
  auto cfg = base_config();
  cfg.steps = 1000;
  cfg.byte_budget = 2 * stats.syncsgd_step_bytes(2);
  baselines::SyncSgdTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_EQ(report.steps_completed, 2);
}

TEST(FedAvg, LearnsAboveChance) {
  const auto train = make_dataset(128);
  const auto test = make_dataset(32);
  Rng prng(4);
  const auto partition = data::partition_iid(train.size(), 4, prng);
  auto cfg = base_config();
  cfg.steps = 15;  // rounds
  cfg.local_steps = 4;
  cfg.eval_every = 5;
  baselines::FedAvgTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_EQ(report.protocol, "fedavg");
  EXPECT_GT(report.final_accuracy, 0.5);
}

TEST(FedAvg, RoundBytesMatchAnalyticModel) {
  const auto train = make_dataset(64);
  const auto test = make_dataset(16);
  Rng prng(5);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  auto cfg = base_config();
  cfg.steps = 4;
  cfg.eval_every = 4;
  baselines::FedAvgTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();

  models::BuiltModel model = builder()();
  auto stats = models::ModelStats::analyze(model);
  EXPECT_EQ(report.total_bytes, 4 * stats.fedavg_round_bytes(3));
}

TEST(FedAvg, SingleLocalStepKeepsPlatformsAveraged) {
  // With K platforms over identical shards and local_steps=1, FedAvg's
  // average should still learn (sanity of the weighted averaging path).
  const auto train = make_dataset(64);
  const auto test = make_dataset(16);
  const std::vector<std::int64_t> shard = {0, 1, 2, 3, 4, 5, 6, 7,
                                           8, 9, 10, 11, 12, 13, 14, 15};
  auto cfg = base_config();
  cfg.steps = 30;
  cfg.local_steps = 1;
  cfg.eval_every = 30;
  baselines::FedAvgTrainer trainer(builder(), train, {shard, shard}, test,
                                   cfg);
  const auto report = trainer.run();
  EXPECT_GT(report.final_accuracy, 0.3);
}

TEST(LocalOnly, ReportsPerPlatformSpread) {
  const auto train = make_dataset(96);
  const auto test = make_dataset(32);
  Rng prng(6);
  // Heavy imbalance: platform 2 sees very little data.
  const auto partition =
      data::partition_weighted(train.size(), {8.0, 3.0, 1.0}, prng);
  auto cfg = base_config();
  cfg.steps = 40;
  cfg.eval_every = 40;
  baselines::LocalOnlyTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  ASSERT_EQ(report.platform_accuracy.size(), 3U);
  EXPECT_GE(report.max_accuracy, report.min_accuracy);
  EXPECT_EQ(report.combined.protocol, "local-only");
  EXPECT_GT(report.combined.final_accuracy, 0.25);
}

TEST(Baselines, ValidateConstruction) {
  const auto train = make_dataset(16);
  const auto test = make_dataset(8);
  auto cfg = base_config();
  EXPECT_THROW(
      baselines::SyncSgdTrainer(builder(), train, {}, test, cfg),
      InvalidArgument);
  cfg.local_steps = 0;
  EXPECT_THROW(
      baselines::FedAvgTrainer(builder(), train, {{0, 1}}, test, cfg),
      InvalidArgument);
  // Every curve-point test is `step % eval_every`.
  cfg = base_config();
  cfg.eval_every = 0;
  EXPECT_THROW(
      baselines::SyncSgdTrainer(builder(), train, {{0, 1}}, test, cfg),
      InvalidArgument);
}


TEST(Cyclic, LearnsAboveChance) {
  const auto train = make_dataset(128);
  const auto test = make_dataset(32);
  Rng prng(7);
  const auto partition = data::partition_iid(train.size(), 4, prng);
  auto cfg = base_config();
  cfg.steps = 15;  // cycles
  cfg.local_steps = 3;
  cfg.eval_every = 5;
  baselines::CyclicTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_EQ(report.protocol, "cyclic");
  EXPECT_GT(report.final_accuracy, 0.5);
}

TEST(Cyclic, OneTransferPerHop) {
  const auto train = make_dataset(64);
  const auto test = make_dataset(16);
  Rng prng(8);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  auto cfg = base_config();
  cfg.steps = 4;
  cfg.eval_every = 4;
  baselines::CyclicTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  // K hops per cycle, one full-parameter message per hop.
  EXPECT_EQ(trainer.network().stats().total_messages(), 4U * 3U);

  models::BuiltModel model = builder()();
  auto stats = models::ModelStats::analyze(model);
  EXPECT_EQ(report.total_bytes, 4 * 3 * stats.parameter_message_bytes());
}

TEST(Cyclic, NeedsAtLeastTwoPlatforms) {
  const auto train = make_dataset(32);
  const auto test = make_dataset(8);
  auto cfg = base_config();
  EXPECT_THROW(
      baselines::CyclicTrainer(builder(), train, {{0, 1, 2}}, test, cfg),
      InvalidArgument);
}

// Exact pins of every comparator's report on the tiny fixtures above: each
// curve point's step, epoch (the examples the loaders returned so far over
// |train|), bytes, sim clock, loss and accuracy as exact doubles, the run totals, and an FNV-1a hash of the final parameters. The
// tests above only check accuracy floors and byte totals; these catch a
// changed loss series, RNG stream, minibatch split or curve-point rule.
// On mismatch the actual values are printed in copy-pasteable form.

struct BaselineGolden {
  std::vector<std::int64_t> steps;
  std::vector<double> epoch;
  std::vector<std::uint64_t> bytes;
  std::vector<double> sim_seconds;
  std::vector<double> loss;
  std::vector<double> accuracy;
  std::uint64_t total_bytes = 0;
  double total_sim_seconds = 0.0;
  /// FNV-1a over the bytes of every final model() parameter (0: no model()).
  std::uint64_t params = 0;
};

std::uint64_t parameter_fingerprint(nn::Sequential& net) {
  std::uint64_t h = 14695981039346656037ULL;
  for (nn::Parameter* param : net.parameters()) {
    const std::span<const float> values = param->value.data();
    const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
    for (std::size_t i = 0; i < values.size_bytes(); ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

BaselineGolden golden_of(const metrics::TrainReport& report,
                         std::uint64_t params) {
  BaselineGolden out;
  for (const auto& p : report.curve) {
    out.steps.push_back(p.step);
    out.epoch.push_back(p.epoch);
    out.bytes.push_back(p.cumulative_bytes);
    out.sim_seconds.push_back(p.sim_seconds);
    out.loss.push_back(p.train_loss);
    out.accuracy.push_back(p.test_accuracy);
  }
  out.total_bytes = report.total_bytes;
  out.total_sim_seconds = report.total_sim_seconds;
  out.params = params;
  return out;
}

template <typename T>
void print_list(std::ostream& os, const std::vector<T>& values) {
  os << "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? ", " : "") << values[i];
  }
  os << "}";
}

void expect_golden(const metrics::TrainReport& report, std::uint64_t params,
                   const BaselineGolden& want) {
  const BaselineGolden got = golden_of(report, params);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.sim_seconds, want.sim_seconds);
  EXPECT_EQ(got.loss, want.loss);
  EXPECT_EQ(got.accuracy, want.accuracy);
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.total_sim_seconds, want.total_sim_seconds);
  EXPECT_EQ(got.params, want.params);
  ASSERT_FALSE(report.curve.empty());
  EXPECT_EQ(report.steps_completed, report.curve.back().step);
  EXPECT_EQ(report.final_accuracy, report.curve.back().test_accuracy);
  if (::testing::Test::HasFailure()) {
    std::ostringstream os;
    os << std::setprecision(17) << "{";
    print_list(os, got.steps);
    os << ",\n ";
    print_list(os, got.epoch);
    os << ",\n ";
    print_list(os, got.bytes);
    os << ",\n ";
    print_list(os, got.sim_seconds);
    os << ",\n ";
    print_list(os, got.loss);
    os << ",\n ";
    print_list(os, got.accuracy);
    os << ",\n " << got.total_bytes << ", " << got.total_sim_seconds << ", "
       << got.params << "ULL}";
    ADD_FAILURE() << report.protocol << " pins — actual:\n" << os.str();
  }
}

const BaselineGolden kGoldenSyncSgd = {
    {2, 4, 5},
    {0.5, 0.96875, 1.09375},
    {1595040, 3190080, 3987600},
    {0.13397610666666665, 0.26795221333333336, 0.33494026666666682},
    {1.9031414985656738, 1.0142861207326253, 1.3900634447733562},
    {0.375, 0.5625, 0.875},
    3987600, 0.33494026666666682, 5033853109619985289ULL};
const BaselineGolden kGoldenSyncSgdBudget = {
    {2, 3},
    {0.5, 0.75},
    {1063360, 1595040},
    {0.063342506666666659, 0.095013759999999975},
    {1.4489417672157288, 1.3109549880027771},
    {0.375, 0.5},
    1595040, 0.095013759999999975, 14445479570963293061ULL};
const BaselineGolden kGoldenFedAvg = {
    {2, 3},
    {0.9375, 1.234375},
    {1595040, 2392560},
    {0.13397610666666668, 0.20096416000000006},
    {1.1629590094089508, 1.1264196634292603},
    {0.625, 0.4375},
    2392560, 0.20096416000000006, 2508871274537103685ULL};
const BaselineGolden kGoldenCyclic = {
    {2, 3},
    {1.1041666666666667, 1.625},
    {797520, 1196280},
    {0.066988053333333325, 0.10048207999999999},
    {0.83993261059125268, 0.71903991202513373},
    {0.6875, 0.9375},
    1196280, 0.10048207999999999, 13862954380737702750ULL};
const BaselineGolden kGoldenLocalOnly = {
    {2, 4, 5},
    {0.58333333333333337, 1.1041666666666667, 1.3958333333333333},
    {0, 0, 0},
    {0, 0, 0},
    {1.5295559565226238, 1.0294077793757122, 0.7969990074634552},
    {0.29166666666666669, 0.27083333333333331, 0.41666666666666669},
    0, 0, 0ULL};
const std::vector<double> kGoldenLocalOnlyPlatforms = {0.5625, 0.4375, 0.25};

TEST(GoldenBaselines, SyncSgdMatchesFingerprint) {
  // K=3 at total_batch 16: workers draw 6/5/5 (the remainder goes first).
  // The shards' first passes end in short batches at step 4 (4 + 5 + 5
  // examples) and step 5 (6 + 1 + 1), so step 4 is epoch 62/64.
  const auto train = make_dataset(64);
  const auto test = make_dataset(16);
  Rng prng(2);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  auto cfg = base_config();
  cfg.steps = 5;
  cfg.eval_every = 2;
  baselines::SyncSgdTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_EQ(report.protocol, "sync-sgd");
  expect_golden(report, parameter_fingerprint(trainer.model()),
                kGoldenSyncSgd);
}

TEST(GoldenBaselines, BudgetStoppedSyncSgdMatchesFingerprint) {
  // The budget runs out at step 3, between eval steps: that step still
  // records a point, and the run stops there.
  const auto train = make_dataset(64);
  const auto test = make_dataset(16);
  Rng prng(3);
  const auto partition = data::partition_iid(train.size(), 2, prng);
  models::BuiltModel model = builder()();
  const auto stats = models::ModelStats::analyze(model);
  auto cfg = base_config();
  cfg.steps = 1000;
  cfg.eval_every = 2;
  cfg.byte_budget = 5 * stats.syncsgd_step_bytes(2) / 2;
  baselines::SyncSgdTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_EQ(report.steps_completed, 3);
  expect_golden(report, parameter_fingerprint(trainer.model()),
                kGoldenSyncSgdBudget);
}

TEST(GoldenBaselines, FedAvgMatchesFingerprint) {
  const auto train = make_dataset(64);
  const auto test = make_dataset(16);
  Rng prng(5);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  auto cfg = base_config();
  cfg.steps = 3;  // rounds
  cfg.local_steps = 2;
  cfg.eval_every = 2;
  baselines::FedAvgTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_EQ(report.protocol, "fedavg");
  expect_golden(report, parameter_fingerprint(trainer.model()),
                kGoldenFedAvg);
}

TEST(GoldenBaselines, CyclicMatchesFingerprint) {
  // The weighted shards leave the smallest one below the local batch, so a
  // visit there draws its whole shard: cycle 2 draws 20 + 17 + 16 of the
  // 32/12/4 shards at batch 5, epoch 53/48.
  const auto train = make_dataset(48);
  const auto test = make_dataset(16);
  Rng prng(6);
  const auto partition =
      data::partition_weighted(train.size(), {8.0, 3.0, 1.0}, prng);
  ASSERT_LT(partition.back().size(), 16U / 3U);
  auto cfg = base_config();
  cfg.steps = 3;  // cycles
  cfg.local_steps = 2;
  cfg.eval_every = 2;
  baselines::CyclicTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_EQ(report.protocol, "cyclic");
  expect_golden(report, parameter_fingerprint(trainer.model()),
                kGoldenCyclic);
}

TEST(GoldenBaselines, LocalOnlyMatchesFingerprint) {
  // Same 8/3/1 shards as the cyclic pin: the smallest shard is below the
  // local batch of 16 / 3 = 5.
  const auto train = make_dataset(48);
  const auto test = make_dataset(16);
  Rng prng(6);
  const auto partition =
      data::partition_weighted(train.size(), {8.0, 3.0, 1.0}, prng);
  ASSERT_LT(partition.back().size(), 16U / 3U);
  auto cfg = base_config();
  cfg.steps = 5;
  cfg.eval_every = 2;
  baselines::LocalOnlyTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_EQ(report.combined.protocol, "local-only");
  expect_golden(report.combined, 0, kGoldenLocalOnly);
  EXPECT_EQ(report.platform_accuracy, kGoldenLocalOnlyPlatforms);
  EXPECT_EQ(report.min_accuracy,
            *std::min_element(kGoldenLocalOnlyPlatforms.begin(),
                              kGoldenLocalOnlyPlatforms.end()));
  EXPECT_EQ(report.max_accuracy,
            *std::max_element(kGoldenLocalOnlyPlatforms.begin(),
                              kGoldenLocalOnlyPlatforms.end()));
  if (::testing::Test::HasFailure()) {
    std::ostringstream os;
    os << std::setprecision(17);
    print_list(os, report.platform_accuracy);
    ADD_FAILURE() << "local-only platform accuracies — actual:\n" << os.str();
  }
}

}  // namespace
}  // namespace splitmed
