// End-to-end churn harness tests: training under the membership subsystem
// (liveness leases, deadline rounds, quarantine, rejoin handshakes) driven
// by deterministic ChurnPlans, composed with WAN fault injection and the
// crash-recovery checkpoint. The golden contract mirrors fault_test /
// crash_resume_test: same seed => bitwise-identical curves, bytes, and
// quarantine ledger, across runs AND thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/checkpoint.hpp"
#include "src/core/membership.hpp"
#include "src/core/platform.hpp"
#include "src/core/server.hpp"
#include "src/core/split_model.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/models/factory.hpp"
#include "src/models/mlp.hpp"
#include "src/net/network.hpp"
#include "src/nn/param_util.hpp"
#include "src/serial/section_file.hpp"

namespace splitmed {
namespace {

namespace fs = std::filesystem;

data::SyntheticCifar make_train(std::int64_t n) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = n;
  opt.num_classes = 4;
  opt.image_size = 8;
  opt.noise_stddev = 0.1F;
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

core::SplitConfig membership_config() {
  core::SplitConfig cfg;
  cfg.total_batch = 12;
  cfg.rounds = 12;
  cfg.eval_every = 4;
  cfg.sgd.learning_rate = 0.02F;
  cfg.sgd.momentum = 0.5F;
  cfg.membership.enabled = true;
  return cfg;
}

/// Exact-double equality over the full reproducible surface, membership
/// counters included.
void expect_identical(const metrics::TrainReport& a,
                      const metrics::TrainReport& b) {
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].train_loss, b.curve[i].train_loss) << "point " << i;
    EXPECT_EQ(a.curve[i].test_accuracy, b.curve[i].test_accuracy)
        << "point " << i;
    EXPECT_EQ(a.curve[i].cumulative_bytes, b.curve[i].cumulative_bytes)
        << "point " << i;
    EXPECT_EQ(a.curve[i].sim_seconds, b.curve[i].sim_seconds) << "point " << i;
  }
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.steps_completed, b.steps_completed);
  EXPECT_EQ(a.skipped_steps, b.skipped_steps);
  EXPECT_EQ(a.examples_lost, b.examples_lost);
  EXPECT_EQ(a.rejected_updates, b.rejected_updates);
  EXPECT_EQ(a.quarantines, b.quarantines);
  EXPECT_EQ(a.void_rounds, b.void_rounds);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
}

// --- config wiring ----------------------------------------------------------

TEST(ChurnConfig, SplitConfigValidateNamesTheContradiction) {
  // A churn plan without the membership subsystem has no machinery to run it.
  core::SplitConfig cfg;
  cfg.churn.crashes.push_back(core::CrashEvent{0, 2, 1.0,
                                               core::RejoinMode::kWarm});
  EXPECT_THROW(cfg.validate(3), InvalidArgument);

  // Membership subsumes participation sampling.
  core::SplitConfig part;
  part.membership.enabled = true;
  part.participation = 0.5;
  EXPECT_THROW(part.validate(3), InvalidArgument);

  // Membership requires the sequential schedule.
  core::SplitConfig sched;
  sched.membership.enabled = true;
  sched.schedule = core::Schedule::kBoundedStaleness;
  sched.staleness_bound = 0;
  EXPECT_THROW(sched.validate(3), InvalidArgument);

  // min_quorum beyond the roster can never be met.
  core::SplitConfig quorum;
  quorum.membership.enabled = true;
  quorum.membership.min_quorum = 9;
  EXPECT_THROW(quorum.validate(3), InvalidArgument);

  core::SplitConfig ok;
  ok.membership.enabled = true;
  EXPECT_NO_THROW(ok.validate(3));
}

// --- plain membership (no churn) --------------------------------------------

TEST(ChurnTraining, MembershipWithEmptyPlanStillTrains) {
  const auto train = make_train(96);
  const auto test = make_train(24);
  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  core::SplitTrainer trainer(mlp_builder(), train, partition, test,
                             membership_config());
  const auto report = trainer.run();
  ASSERT_NE(trainer.membership(), nullptr);
  const auto& led = trainer.membership()->ledger();
  EXPECT_EQ(report.steps_completed, 12);
  EXPECT_GE(led.heartbeats_fresh, 3);  // every platform's first beacon
  EXPECT_EQ(led.quarantines, 0);
  EXPECT_EQ(led.crashes, 0);
  EXPECT_EQ(report.void_rounds, 0);
  EXPECT_EQ(report.examples_lost, 0);
  EXPECT_EQ(report.rejected_updates, 0);
  for (const auto& p : report.curve) {
    EXPECT_TRUE(std::isfinite(p.train_loss));
  }
  EXPECT_GT(report.final_accuracy, 0.4);
}

// --- determinism across runs and thread counts ------------------------------

TEST(ChurnTraining, SameChurnSeedIsBitwiseAcrossThreadCounts) {
  const auto train = make_train(96);
  const auto test = make_train(24);
  core::ChurnRates rates;
  rates.crash_rate = 0.04;
  rates.mean_offline_sec = 0.3;
  rates.poison_rate = 0.03;
  rates.poison_rounds = 2;

  const auto run = [&](int threads) {
    auto cfg = membership_config();
    cfg.rounds = 16;
    cfg.eval_every = 4;
    cfg.threads = threads;
    cfg.membership.probation_readmit_prob = 1.0;
    cfg.churn = core::ChurnPlan::random(cfg.seed, 3, cfg.rounds, rates);
    Rng prng(1);
    const auto partition = data::partition_iid(train.size(), 3, prng);
    core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
    const auto report = trainer.run();
    return std::pair{report, trainer.membership()->ledger().fingerprint()};
  };

  const auto [r1, fp1] = run(1);
  const auto [r2, fp2] = run(3);
  expect_identical(r1, r2);
  EXPECT_EQ(fp1, fp2) << "quarantine ledger diverged across thread counts";
}

// --- poisoning and quarantine -----------------------------------------------

TEST(ChurnTraining, PoisonedPlatformIsQuarantinedWhileLossStaysFinite) {
  const auto train = make_train(96);
  const auto test = make_train(24);
  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  auto cfg = membership_config();
  cfg.rounds = 16;
  cfg.eval_every = 2;
  cfg.membership.strikes_to_quarantine = 2;
  cfg.membership.quarantine_rounds = 4;
  cfg.membership.probation_readmit_prob = 1.0;
  // Platform 1 norm-bombs rounds 4..9 — history is warmed by rounds 1..3
  // (9 accepted activations against the default warmup of 8).
  cfg.churn.poisons.push_back(core::PoisonEvent{
      1, /*round=*/4, /*duration_rounds=*/6, core::PoisonKind::kNormBomb,
      1.0e6F});
  core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  const auto& led = trainer.membership()->ledger();

  // Two bombed rounds struck it out; the rest of the spell it sat in
  // quarantine, then probation (prob 1.0) readmitted it after the poison
  // spell ended.
  EXPECT_EQ(report.quarantines, 1);
  EXPECT_EQ(report.rejected_updates, 2);
  EXPECT_EQ(led.rejected_normbomb, 2);
  EXPECT_EQ(trainer.platform(1).rejected_steps(), 2);
  EXPECT_GE(led.readmissions, 1);
  // The poison never reached an optimizer: the global loss stayed finite and
  // the healthy platforms kept learning.
  ASSERT_GE(report.curve.size(), 2U);
  for (const auto& p : report.curve) {
    EXPECT_TRUE(std::isfinite(p.train_loss)) << "round " << p.step;
  }
  EXPECT_LT(report.curve.back().train_loss, report.curve.front().train_loss);
  EXPECT_GT(report.final_accuracy, 0.4);
}

TEST(ChurnTraining, NonFinitePoisonIsRejectedBeforeTraining) {
  const auto train = make_train(96);
  const auto test = make_train(24);
  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  auto cfg = membership_config();
  cfg.rounds = 8;
  cfg.eval_every = 2;
  cfg.churn.poisons.push_back(core::PoisonEvent{
      2, /*round=*/3, /*duration_rounds=*/2, core::PoisonKind::kNonFinite,
      1.0F});
  core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_EQ(trainer.membership()->ledger().rejected_nonfinite, 2);
  for (const auto& p : report.curve) {
    EXPECT_TRUE(std::isfinite(p.train_loss));
  }
}

// --- crashes, outages, rejoins ----------------------------------------------

TEST(ChurnTraining, CrashOutageWarmRejoinAndExampleAccounting) {
  const auto train = make_train(96);
  const auto test = make_train(24);
  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  auto cfg = membership_config();
  cfg.rounds = 12;
  // Each sequential round moves >= 8 frames at >= 20ms latency, so a 0.3s
  // outage is served within a couple of rounds — well before the run ends.
  cfg.churn.crashes.push_back(core::CrashEvent{0, /*round=*/3, 0.3,
                                               core::RejoinMode::kWarm});
  core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  const auto& led = trainer.membership()->ledger();
  EXPECT_EQ(led.crashes, 1);
  EXPECT_EQ(led.rejoins_warm, 1);
  EXPECT_EQ(led.rejoins_cold, 0);
  // The outage cost platform 0 at least one round's minibatch.
  EXPECT_GE(led.outage_examples_lost, trainer.minibatches()[0]);
  EXPECT_EQ(report.examples_lost, led.outage_examples_lost);
  // It came back and kept training (warm: its L1 survived).
  EXPECT_GT(trainer.platform(0).steps_completed(), 3);
  EXPECT_EQ(trainer.platform(0).rejoins_completed(), 1);
  EXPECT_GT(report.final_accuracy, 0.4);
}

TEST(ColdRejoin, GenesisL1IsRestoredBitwise) {
  // Unit fixture: one platform, one server, a cold join handshake. The
  // server holds only the GENESIS flattened L1 (captured when every replica
  // was identical) — never the platform's current weights — so a cold rejoin
  // restarts L1 from genesis, bitwise.
  const auto dataset = make_train(8);
  net::Network network;
  const NodeId server_id = network.add_node("server");
  const NodeId platform_id = network.add_node("platform");
  models::MlpConfig mcfg;
  mcfg.input_shape = Shape{3, 8, 8};
  mcfg.hidden = {8};
  mcfg.num_classes = 4;
  auto model = models::make_mlp(mcfg);
  auto parts = core::split_at(std::move(model.net), model.default_cut);
  core::CentralServer server(server_id, std::move(parts.server),
                             optim::SgdOptions{});
  core::PlatformNode platform(platform_id, server_id,
                              std::move(parts.platform),
                              data::DataLoader(dataset, {0, 1, 2, 3}, 2,
                                               Rng(1)),
                              optim::SgdOptions{});

  core::MembershipConfig mem;
  mem.enabled = true;
  core::MembershipService service(mem, core::ChurnPlan{}, 1, 7, {2});
  server.set_membership(&service, {platform_id});
  const Tensor genesis = nn::flatten_values(platform.l1().parameters());
  server.set_genesis_l1(nn::flatten_values(platform.l1().parameters()));

  // The platform's local state diverges (training happened), then is "lost".
  for (nn::Parameter* p : platform.l1().parameters()) {
    for (float& v : p->value.data()) v += 0.5F;
  }

  platform.send_join_request(network, 0, 1, core::RejoinMode::kCold);
  EXPECT_TRUE(platform.awaiting_join());
  server.handle(network, network.receive(server_id));
  platform.handle(network, network.receive(platform_id));
  EXPECT_FALSE(platform.awaiting_join());
  EXPECT_EQ(platform.rejoins_completed(), 1);

  const Tensor after = nn::flatten_values(platform.l1().parameters());
  ASSERT_EQ(after.numel(), genesis.numel());
  for (std::int64_t i = 0; i < after.numel(); ++i) {
    EXPECT_EQ(after.data()[static_cast<std::size_t>(i)],
              genesis.data()[static_cast<std::size_t>(i)])
        << "L1 parameter " << i << " not restored to genesis";
  }
}

TEST(ColdRejoin, MisSizedGenesisLeavesL1Untouched) {
  // A genesis payload one value short, then one value long, is refused
  // before any L1 value is written: the platform keeps its own weights and
  // its rejoin does not complete.
  for (const std::int64_t extra : {-1, 1}) {
    SCOPED_TRACE("genesis off by " + std::to_string(extra));
    const auto dataset = make_train(8);
    net::Network network;
    const NodeId server_id = network.add_node("server");
    const NodeId platform_id = network.add_node("platform");
    models::MlpConfig mcfg;
    mcfg.input_shape = Shape{3, 8, 8};
    mcfg.hidden = {8};
    mcfg.num_classes = 4;
    auto model = models::make_mlp(mcfg);
    auto parts = core::split_at(std::move(model.net), model.default_cut);
    core::CentralServer server(server_id, std::move(parts.server),
                               optim::SgdOptions{});
    core::PlatformNode platform(platform_id, server_id,
                                std::move(parts.platform),
                                data::DataLoader(dataset, {0, 1, 2, 3}, 2,
                                                 Rng(1)),
                                optim::SgdOptions{});
    core::MembershipConfig mem;
    mem.enabled = true;
    core::MembershipService service(mem, core::ChurnPlan{}, 1, 7, {2});
    server.set_membership(&service, {platform_id});
    const Tensor before = nn::flatten_values(platform.l1().parameters());
    server.set_genesis_l1(
        Tensor::full(Shape{before.numel() + extra}, 7.0F));

    platform.send_join_request(network, 0, 1, core::RejoinMode::kCold);
    server.handle(network, network.receive(server_id));
    EXPECT_THROW(platform.handle(network, network.receive(platform_id)),
                 ProtocolError);
    EXPECT_EQ(platform.rejoins_completed(), 0);

    const Tensor after = nn::flatten_values(platform.l1().parameters());
    ASSERT_EQ(after.numel(), before.numel());
    std::int64_t overwritten = 0;
    for (std::int64_t i = 0; i < after.numel(); ++i) {
      if (after.data()[static_cast<std::size_t>(i)] !=
          before.data()[static_cast<std::size_t>(i)]) {
        ++overwritten;
      }
    }
    EXPECT_EQ(overwritten, 0) << "of " << after.numel() << " L1 values";
  }
}

// --- deadline rounds --------------------------------------------------------

TEST(ChurnTraining, TightDeadlineDegradesToOneStepPerRound) {
  const auto train = make_train(96);
  const auto test = make_train(24);
  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  auto cfg = membership_config();
  cfg.rounds = 9;
  cfg.eval_every = 3;
  // A deadline shorter than any frame flight time: after the liveness floor
  // (the first eligible platform always steps), everyone else is gated.
  cfg.membership.round_deadline_sec = 1.0e-6;
  core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_EQ(report.steps_completed, 9);
  EXPECT_EQ(report.deadline_misses, 2 * 9);  // K-1 platforms gated each round
  EXPECT_EQ(report.void_rounds, 0);          // min_quorum 1: degraded, valid
  // The rotated start order spreads the single slot fairly.
  EXPECT_EQ(trainer.platform(0).steps_completed(), 3);
  EXPECT_EQ(trainer.platform(1).steps_completed(), 3);
  EXPECT_EQ(trainer.platform(2).steps_completed(), 3);
}

TEST(ChurnTraining, BelowQuorumRoundIsVoidAndCarriesLoss) {
  const auto train = make_train(64);
  const auto test = make_train(16);
  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 2, prng);
  auto cfg = membership_config();
  cfg.total_batch = 8;
  cfg.rounds = 8;
  cfg.eval_every = 1;
  cfg.membership.min_quorum = 2;
  cfg.churn.crashes.push_back(core::CrashEvent{0, /*round=*/3, 0.05,
                                               core::RejoinMode::kWarm});
  core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_GE(report.void_rounds, 1);
  ASSERT_EQ(report.curve.size(), 8U);
  // Round 3 closed with one of two required steps: void — its curve point
  // carries round 2's loss instead of fabricating one from half a quorum.
  EXPECT_EQ(report.curve[2].train_loss, report.curve[1].train_loss);
  EXPECT_TRUE(std::isfinite(report.curve[7].train_loss));
  EXPECT_GE(report.examples_lost, trainer.minibatches()[0]);
}

// --- chaos: churn + WAN faults + crash/resume -------------------------------

/// The chaos configuration whose ledger fingerprint is pinned below: random
/// poison spells, an explicit mid-run outage spanning the checkpoint round,
/// and WAN fault injection, all at once.
core::SplitConfig chaos_config() {
  auto cfg = membership_config();
  cfg.rounds = 12;
  cfg.eval_every = 3;
  cfg.membership.strikes_to_quarantine = 2;
  cfg.membership.quarantine_rounds = 2;
  cfg.membership.probation_readmit_prob = 1.0;
  core::ChurnRates rates;
  rates.poison_rate = 0.05;
  rates.poison_rounds = 2;
  cfg.churn = core::ChurnPlan::random(cfg.seed, 3, cfg.rounds, rates);
  // One scripted outage long enough to span the round-6 checkpoint: the
  // checkpoint is taken MID-OUTAGE and resume must finish serving it.
  cfg.churn.crashes.push_back(core::CrashEvent{1, /*round=*/5, 1.0,
                                               core::RejoinMode::kCold});
  cfg.faults.drop_rate = 0.03;
  cfg.faults.duplicate_rate = 0.03;
  cfg.faults.corrupt_rate = 0.03;
  cfg.recovery.timeout_sec = 5.0;
  cfg.recovery.backoff = 1.0;
  cfg.recovery.max_retries = 2;
  return cfg;
}

struct ChaosResult {
  metrics::TrainReport report;
  std::uint64_t ledger_fingerprint = 0;
  std::int64_t rejoins_cold = 0;
};

ChaosResult run_chaos(const core::SplitConfig& cfg) {
  const auto train = make_train(96);
  const auto test = make_train(24);
  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
  ChaosResult out;
  out.report = trainer.run();
  out.ledger_fingerprint = trainer.membership()->ledger().fingerprint();
  out.rejoins_cold = trainer.membership()->ledger().rejoins_cold;
  return out;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

TEST(ChurnChaos, GoldenResumeThroughMidOutageCheckpoint) {
  const ChaosResult golden = run_chaos(chaos_config());
  EXPECT_EQ(golden.rejoins_cold, 1);  // the scripted outage was served
  EXPECT_GT(golden.report.examples_lost, 0);

  // Crash after round 6 — mid-outage for platform 1 — resume, finish.
  const std::string dir = fresh_dir("churn_chaos_resume");
  {
    auto cfg = chaos_config();
    cfg.rounds = 6;
    cfg.checkpoint_every = 6;
    cfg.checkpoint_dir = dir;
    (void)run_chaos(cfg);
  }
  auto cfg = chaos_config();
  cfg.resume_from = dir;
  const ChaosResult resumed = run_chaos(cfg);
  expect_identical(golden.report, resumed.report);
  EXPECT_EQ(golden.ledger_fingerprint, resumed.ledger_fingerprint)
      << "membership ledger diverged across checkpoint/resume";

  // Same seed, same plan: the ledger fingerprint is pinned. A change here
  // means churn semantics changed — update deliberately, never casually.
  const ChaosResult again = run_chaos(chaos_config());
  EXPECT_EQ(golden.ledger_fingerprint, again.ledger_fingerprint);
  fs::remove_all(dir);
}

TEST(ChurnChaos, DamagedNodeStateLeavesMembershipUntouched) {
  // The round-6 chaos checkpoint with platform 1's 'state' section cut to
  // half, CRCs re-sealed: the load fails after the membership section was
  // applied, so the refused load must put the membership service back too.
  // The trainer then runs as if never touched, ledger included.
  const ChaosResult golden = run_chaos(chaos_config());
  const std::string dir = fresh_dir("churn_chaos_damaged_state");
  {
    auto cfg = chaos_config();
    cfg.rounds = 6;
    cfg.checkpoint_every = 6;
    cfg.checkpoint_dir = dir;
    (void)run_chaos(cfg);
  }
  const fs::path round6 = fs::path(dir) / core::checkpoint_round_dirname(6);
  const std::string path =
      (round6 / core::checkpoint_platform_filename(1)).string();
  const SectionFileReader node = SectionFileReader::read_file(path);
  SectionFileWriter forged;
  for (const Section& section : node.sections()) {
    std::vector<std::uint8_t> payload = section.payload;
    if (section.name == "state") payload.resize(payload.size() / 2);
    forged.add(section.name, std::move(payload));
  }
  forged.write_file(path);

  const auto train = make_train(96);
  const auto test = make_train(24);
  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  core::SplitTrainer trainer(mlp_builder(), train, partition, test,
                             chaos_config());
  EXPECT_THROW(trainer.load_checkpoint(round6.string()), SerializationError);
  EXPECT_EQ(trainer.next_round(), 1U);
  expect_identical(golden.report, trainer.run());
  EXPECT_EQ(trainer.membership()->ledger().fingerprint(),
            golden.ledger_fingerprint);
  fs::remove_all(dir);
}

TEST(ChurnChaos, ResumeRefusesRosterOrMembershipMismatch) {
  const auto train = make_train(96);
  const auto test = make_train(24);
  const std::string dir = fresh_dir("churn_roster_mismatch");
  {
    auto cfg = membership_config();
    cfg.rounds = 4;
    cfg.checkpoint_every = 4;
    cfg.checkpoint_dir = dir;
    Rng prng(1);
    const auto partition = data::partition_iid(train.size(), 3, prng);
    core::SplitTrainer trainer(mlp_builder(), train, partition, test, cfg);
    (void)trainer.run();
  }

  // Same platform count, different shard split: the per-platform roster in
  // the manifest disagrees and resume is refused naming both sizes.
  {
    auto cfg = membership_config();
    cfg.resume_from = dir;
    data::Partition skewed(3);
    for (std::int64_t i = 0; i < train.size(); ++i) {
      skewed[i < 60 ? (i < 30 ? 0U : 1U) : 2U].push_back(i);
    }
    EXPECT_THROW(core::SplitTrainer(mlp_builder(), train, skewed, test, cfg),
                 SerializationError);
  }

  // Membership off against a membership checkpoint: refused, not silently
  // dropped — the ledger and lifecycle state would be lost.
  {
    auto cfg = membership_config();
    cfg.membership.enabled = false;
    cfg.resume_from = dir;
    Rng prng(1);
    const auto partition = data::partition_iid(train.size(), 3, prng);
    EXPECT_THROW(
        core::SplitTrainer(mlp_builder(), train, partition, test, cfg),
        SerializationError);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace splitmed
