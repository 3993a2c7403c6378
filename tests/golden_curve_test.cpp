// Golden regression test: a fixed-seed split-training run must reproduce an
// exact per-round wire-byte series and a quantized loss/accuracy
// fingerprint. Catches any silent change to the wire format, the byte
// accounting, message ordering, RNG consumption, or the math — the
// determinism contract of docs/PROTOCOL.md, pinned to concrete numbers.
//
// The byte series is compared exactly (integers; platform-independent by
// construction). Losses and accuracies go through coarse quantization
// (1/32 resolution) so the fingerprint tolerates last-ulp libm differences
// across platforms while still catching real numerical drift.
//
// If an INTENDED change shifts these numbers (e.g. a wire-format revision),
// rerun the test: on mismatch it prints the full actual series in
// copy-pasteable form. Update the goldens in the same commit as the change
// and say why in the commit message.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/trainer.hpp"
#include "src/data/partition.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/models/factory.hpp"
#include "src/nn/plan.hpp"

namespace splitmed {
namespace {

core::ModelBuilder builder() {
  return [] {
    models::FactoryConfig cfg;
    cfg.name = "mlp";
    cfg.image_size = 8;
    cfg.num_classes = 4;
    return models::build_model(cfg);
  };
}

std::uint64_t fnv1a(std::uint64_t h, std::span<const float> values) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t parameter_fingerprint(core::SplitTrainer& trainer) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t p = 0; p < trainer.num_platforms(); ++p) {
    for (nn::Parameter* param : trainer.platform(p).l1().parameters()) {
      h = fnv1a(h, param->value.data());
    }
  }
  for (nn::Parameter* param : trainer.server().body().parameters()) {
    h = fnv1a(h, param->value.data());
  }
  return h;
}

/// The fixed-seed reference run. `tweak` mutates the config after the golden
/// settings are applied — used to assert that a feature (e.g. observability)
/// is bitwise inert: the tweaked run must still match the pinned fingerprint.
/// `ledger_fingerprint`, when given, receives the membership ledger's
/// fingerprint (0 when membership is off); `parameters`, when given, the
/// parameter_fingerprint of the trained model.
metrics::TrainReport golden_run(
    const std::function<void(core::SplitConfig&)>& tweak = nullptr,
    std::uint64_t* ledger_fingerprint = nullptr,
    std::uint64_t* parameters = nullptr) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = 96;
  opt.num_classes = 4;
  opt.image_size = 8;
  opt.noise_stddev = 0.1F;
  opt.seed = 42;
  const data::SyntheticCifar train(opt);
  opt.num_examples = 32;
  opt.index_offset = 96;
  const data::SyntheticCifar test(opt);

  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  core::SplitConfig cfg;
  cfg.total_batch = 12;
  cfg.rounds = 10;
  cfg.eval_every = 1;  // one curve point per round = per-round byte series
  cfg.sgd.learning_rate = 0.02F;
  cfg.sgd.momentum = 0.5F;
  cfg.seed = 123;
  if (tweak) tweak(cfg);
  core::SplitTrainer trainer(builder(), train, partition, test, cfg);
  metrics::TrainReport report = trainer.run();
  if (!cfg.faults.any()) {
    // A fault-free golden run: no fault counter may move and every wire
    // byte is goodput.
    EXPECT_EQ(trainer.network().stats().retransmits(), 0U);
    EXPECT_EQ(trainer.network().stats().dropped(), 0U);
    EXPECT_EQ(trainer.network().stats().corrupted(), 0U);
    EXPECT_EQ(trainer.network().stats().duplicates(), 0U);
    EXPECT_EQ(trainer.network().stats().goodput_bytes(),
              trainer.network().stats().total_bytes());
  }
  if (ledger_fingerprint != nullptr) {
    *ledger_fingerprint = trainer.membership() != nullptr
                              ? trainer.membership()->ledger().fingerprint()
                              : 0;
  }
  if (parameters != nullptr) *parameters = parameter_fingerprint(trainer);
  return report;
}

long quantize(double v) { return std::lround(v * 32.0); }

// The pinned fingerprint. Regenerate from the failure printout below.
// These are the seed repo's kF32 numbers — the codec tag rides in the
// always-zero high byte of the rank word, so introducing the tagged wire
// format must NOT move them.
const std::vector<std::uint64_t> kGoldenBytes = {
    13248,  26496,  39744,  52992,  66240,
    79488,  92736,  105984, 119232, 132480};
const std::vector<long> kGoldenLoss = {64, 44, 35, 33, 19, 26, 14, 15, 8, 14};
const std::vector<long> kGoldenAcc = {12, 19, 20, 22, 21, 28, 29, 31, 31, 32};

/// Extracts the (bytes, quantized loss, quantized accuracy) series and, on
/// mismatch against the pins, prints the actual series copy-pasteable.
void expect_fingerprint(const metrics::TrainReport& report,
                        const std::vector<std::uint64_t>& golden_bytes,
                        const std::vector<long>& golden_loss,
                        const std::vector<long>& golden_acc,
                        const char* tag) {
  std::vector<std::uint64_t> bytes;
  std::vector<long> loss;
  std::vector<long> acc;
  for (const auto& p : report.curve) {
    bytes.push_back(p.cumulative_bytes);
    loss.push_back(quantize(p.train_loss));
    acc.push_back(quantize(p.test_accuracy));
  }
  EXPECT_EQ(bytes, golden_bytes) << tag;
  EXPECT_EQ(loss, golden_loss) << tag;
  EXPECT_EQ(acc, golden_acc) << tag;
  if (::testing::Test::HasFailure()) {
    const auto dump = [](const char* name, const auto& v) {
      std::ostringstream os;
      os << name << " = {";
      for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
      os << "};";
      return os.str();
    };
    ADD_FAILURE() << tag << " fingerprint mismatch — actual series:\n"
                  << dump("Bytes", bytes) << "\n"
                  << dump("Loss", loss) << "\n"
                  << dump("Acc", acc);
  }
}

// Pinned per-codec golden curves for the lossy wire codecs. Same fixed-seed
// run as kGoldenBytes, only SplitConfig::codec differs — the lossy paths are
// deterministic and regression-locked exactly like the f32 wire.
const std::vector<std::uint64_t> kGoldenF16Bytes = {
    7104,  14208, 21312, 28416, 35520,
    42624, 49728, 56832, 63936, 71040};
const std::vector<long> kGoldenF16Loss = {64, 44, 35, 33, 19,
                                          26, 14, 15, 8,  14};
const std::vector<long> kGoldenF16Acc = {12, 19, 20, 22, 21,
                                         28, 29, 31, 31, 32};
const std::vector<std::uint64_t> kGoldenI8Bytes = {
    4056,  8112,  12168, 16224, 20280,
    24336, 28392, 32448, 36504, 40560};
const std::vector<long> kGoldenI8Loss = {64, 45, 35, 33, 20,
                                         26, 14, 16, 8,  15};
const std::vector<long> kGoldenI8Acc = {12, 20, 19, 20, 21,
                                        28, 29, 31, 30, 32};

/// A full run fingerprint for the schedule, fault and membership paths: the
/// curve series plus the exact simulated clock at every curve point, the
/// report's accounting counters and the membership ledger fingerprint.
struct RunGolden {
  std::vector<std::uint64_t> bytes;
  std::vector<long> loss;
  std::vector<long> acc;
  std::vector<double> sim_seconds;
  /// skipped_steps, examples_lost, rejected_updates, quarantines,
  /// void_rounds, deadline_misses.
  std::vector<std::int64_t> counters;
  std::uint64_t ledger = 0;
};

/// expect_fingerprint plus the exact run-level pins of `golden`; prints the
/// actual values copy-pasteable on mismatch.
void expect_run_fingerprint(const metrics::TrainReport& report,
                            std::uint64_t ledger, const RunGolden& golden,
                            const char* tag) {
  expect_fingerprint(report, golden.bytes, golden.loss, golden.acc, tag);
  std::vector<double> sim;
  for (const auto& p : report.curve) sim.push_back(p.sim_seconds);
  const std::vector<std::int64_t> counters = {
      report.skipped_steps, report.examples_lost, report.rejected_updates,
      report.quarantines,   report.void_rounds,   report.deadline_misses};
  EXPECT_EQ(sim, golden.sim_seconds) << tag;
  EXPECT_EQ(counters, golden.counters) << tag;
  EXPECT_EQ(ledger, golden.ledger) << tag;
  if (::testing::Test::HasFailure()) {
    std::ostringstream os;
    os << std::setprecision(17) << "SimSeconds = {";
    for (std::size_t i = 0; i < sim.size(); ++i) {
      os << (i ? ", " : "") << sim[i];
    }
    os << "};\nCounters = {";
    for (std::size_t i = 0; i < counters.size(); ++i) {
      os << (i ? ", " : "") << counters[i];
    }
    os << "};\nLedger = " << ledger << "ULL;";
    ADD_FAILURE() << tag << " run pins — actual:\n" << os.str();
  }
}

TEST(GoldenCurve, FixedSeedRunMatchesFingerprint) {
  const auto report = golden_run();
  ASSERT_EQ(report.curve.size(), 10U);

  std::vector<std::uint64_t> bytes;
  std::vector<long> loss;
  std::vector<long> acc;
  for (const auto& p : report.curve) {
    bytes.push_back(p.cumulative_bytes);
    loss.push_back(quantize(p.train_loss));
    acc.push_back(quantize(p.test_accuracy));
  }

  EXPECT_EQ(bytes, kGoldenBytes);
  EXPECT_EQ(loss, kGoldenLoss);
  EXPECT_EQ(acc, kGoldenAcc);
  EXPECT_EQ(report.total_bytes, kGoldenBytes.back());
  EXPECT_EQ(report.skipped_steps, 0);

  if (::testing::Test::HasFailure()) {
    const auto dump = [](const char* name, const auto& v) {
      std::ostringstream os;
      os << name << " = {";
      for (std::size_t i = 0; i < v.size(); ++i) {
        os << (i ? ", " : "") << v[i];
      }
      os << "};";
      return os.str();
    };
    ADD_FAILURE() << "golden fingerprint mismatch — actual series:\n"
                  << dump("kGoldenBytes", bytes) << "\n"
                  << dump("kGoldenLoss", loss) << "\n"
                  << dump("kGoldenAcc", acc);
  }
}

TEST(GoldenCurve, PlannerOffMatchesGoldens) {
  // The execution planner is ON by default, so the pinned fingerprints
  // above already certify the FUSED path (the golden MLP trains through
  // fused linear→relu groups). This case certifies the other direction:
  // turning the planner OFF reproduces the exact same numbers — fusion is
  // bitwise inert, not merely "close".
  nn::set_planner_enabled(false);
  const auto report = golden_run();
  nn::set_planner_enabled(true);
  expect_fingerprint(report, kGoldenBytes, kGoldenLoss, kGoldenAcc,
                     "planner off");
}

TEST(GoldenCurve, ByteSeriesIsReproducible) {
  // Two identical runs produce identical byte series and bit-identical
  // curves — the fingerprint above is stable, not flaky.
  const auto r1 = golden_run();
  const auto r2 = golden_run();
  ASSERT_EQ(r1.curve.size(), r2.curve.size());
  for (std::size_t i = 0; i < r1.curve.size(); ++i) {
    EXPECT_EQ(r1.curve[i].cumulative_bytes, r2.curve[i].cumulative_bytes);
    EXPECT_EQ(r1.curve[i].train_loss, r2.curve[i].train_loss);
    EXPECT_EQ(r1.curve[i].test_accuracy, r2.curve[i].test_accuracy);
    EXPECT_EQ(r1.curve[i].sim_seconds, r2.curve[i].sim_seconds);
  }
}

TEST(GoldenCurve, TracingIsBitwiseInert) {
  // The observability contract (docs/OBSERVABILITY.md): tracing at full
  // detail, with metrics and the flight recorder active, changes NOTHING
  // about the run — same bytes, same quantized loss/accuracy, against the
  // same pinned fingerprint the un-instrumented run above matches.
  namespace fs = std::filesystem;
  const fs::path trace = fs::path(::testing::TempDir()) / "golden_trace.json";
  const fs::path prom = fs::path(::testing::TempDir()) / "golden_metrics.prom";
  const fs::path attr =
      fs::path(::testing::TempDir()) / "golden_attribution.jsonl";
  const auto report = golden_run([&](core::SplitConfig& cfg) {
    cfg.obs.enabled = true;
    cfg.obs.detail = 2;  // per-layer nn spans — the heaviest setting
    cfg.obs.trace_path = trace.string();
    cfg.obs.metrics_path = prom.string();
    cfg.obs.attribution_path = attr.string();
  });
  ASSERT_EQ(report.curve.size(), 10U);
  std::vector<std::uint64_t> bytes;
  std::vector<long> loss;
  std::vector<long> acc;
  for (const auto& p : report.curve) {
    bytes.push_back(p.cumulative_bytes);
    loss.push_back(quantize(p.train_loss));
    acc.push_back(quantize(p.test_accuracy));
  }
  EXPECT_EQ(bytes, kGoldenBytes);
  EXPECT_EQ(loss, kGoldenLoss);
  EXPECT_EQ(acc, kGoldenAcc);
  // The instrumented run also actually produced its outputs.
  EXPECT_TRUE(fs::exists(trace));
  EXPECT_TRUE(fs::exists(prom));
  EXPECT_TRUE(fs::exists(attr));
  fs::remove(trace);
  fs::remove(prom);
  fs::remove(attr);
}

TEST(GoldenCurve, KF16FixedSeedRunMatchesFingerprint) {
  const auto report =
      golden_run([](core::SplitConfig& cfg) { cfg.codec = WireCodec::kF16; });
  expect_fingerprint(report, kGoldenF16Bytes, kGoldenF16Loss, kGoldenF16Acc,
                     "kGoldenF16");
}

TEST(GoldenCurve, KI8FixedSeedRunMatchesFingerprint) {
  const auto report =
      golden_run([](core::SplitConfig& cfg) { cfg.codec = WireCodec::kI8; });
  expect_fingerprint(report, kGoldenI8Bytes, kGoldenI8Loss, kGoldenI8Acc,
                     "kGoldenI8");
}

TEST(GoldenCurve, LossyCodecsAreThreadInvariant) {
  // The f16/i8 pack/unpack paths are integer-exact per element and carry no
  // cross-element state, so the substrate thread count must not move the
  // lossy fingerprints either (same contract the f32 wire already has).
  const auto f16 = golden_run([](core::SplitConfig& cfg) {
    cfg.codec = WireCodec::kF16;
    cfg.threads = 3;
  });
  expect_fingerprint(f16, kGoldenF16Bytes, kGoldenF16Loss, kGoldenF16Acc,
                     "kGoldenF16 (threads=3)");
  const auto i8 = golden_run([](core::SplitConfig& cfg) {
    cfg.codec = WireCodec::kI8;
    cfg.threads = 3;
  });
  expect_fingerprint(i8, kGoldenI8Bytes, kGoldenI8Loss, kGoldenI8Acc,
                     "kGoldenI8 (threads=3)");
}

TEST(GoldenCurve, CodecByteTotalsAreStrictlyOrdered) {
  // The point of the codecs: every round moves strictly fewer wire bytes
  // under f16 than f32, and fewer still under i8.
  ASSERT_EQ(kGoldenF16Bytes.size(), kGoldenBytes.size());
  ASSERT_EQ(kGoldenI8Bytes.size(), kGoldenBytes.size());
  for (std::size_t i = 0; i < kGoldenBytes.size(); ++i) {
    EXPECT_LT(kGoldenI8Bytes[i], kGoldenF16Bytes[i]) << "round " << i;
    EXPECT_LT(kGoldenF16Bytes[i], kGoldenBytes[i]) << "round " << i;
  }
}

TEST(GoldenCurve, CrossCodecCheckpointResumeIsBitwise) {
  // Checkpoint/resume under a lossy codec: a kI8 run interrupted at round 5
  // and resumed from disk reproduces the uninterrupted kI8 run bit for bit.
  // The manifest records the codec, so the resumed trainer re-negotiates the
  // same wire format without being told.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "golden_i8_ckpt";
  fs::remove_all(dir);

  const auto uninterrupted =
      golden_run([](core::SplitConfig& cfg) { cfg.codec = WireCodec::kI8; });

  (void)golden_run([&](core::SplitConfig& cfg) {
    cfg.codec = WireCodec::kI8;
    cfg.rounds = 5;
    cfg.checkpoint_every = 5;
    cfg.checkpoint_dir = dir.string();
  });
  const auto resumed = golden_run([&](core::SplitConfig& cfg) {
    cfg.codec = WireCodec::kI8;
    cfg.resume_from = dir.string();
  });

  ASSERT_EQ(resumed.curve.size(), uninterrupted.curve.size());
  for (std::size_t i = 0; i < resumed.curve.size(); ++i) {
    EXPECT_EQ(resumed.curve[i].cumulative_bytes,
              uninterrupted.curve[i].cumulative_bytes);
    EXPECT_EQ(resumed.curve[i].train_loss, uninterrupted.curve[i].train_loss);
    EXPECT_EQ(resumed.curve[i].test_accuracy,
              uninterrupted.curve[i].test_accuracy);
    EXPECT_EQ(resumed.curve[i].sim_seconds,
              uninterrupted.curve[i].sim_seconds);
  }
  EXPECT_EQ(resumed.total_bytes, uninterrupted.total_bytes);
  fs::remove_all(dir);
}

TEST(GoldenCurve, ResumeRefusesMismatchedCodec) {
  // A checkpoint saved under kI8 must not silently resume onto an f32 wire:
  // the byte curves would diverge from both codecs' goldens. The manifest
  // load rejects the mismatch outright.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "golden_mismatch_ckpt";
  fs::remove_all(dir);
  (void)golden_run([&](core::SplitConfig& cfg) {
    cfg.codec = WireCodec::kI8;
    cfg.rounds = 5;
    cfg.checkpoint_every = 5;
    cfg.checkpoint_dir = dir.string();
  });
  EXPECT_THROW(golden_run([&](core::SplitConfig& cfg) {
                 // codec left at the kF32 default — mismatch.
                 cfg.resume_from = dir.string();
               }),
               SerializationError);
  fs::remove_all(dir);
}

TEST(GoldenCurve, EnvelopeFramingOverheadIsPinned) {
  // The wire format: 28 header bytes + payload (docs/PROTOCOL.md). Changing
  // this breaks every recorded byte curve; change it consciously.
  Envelope env;
  EXPECT_EQ(env.wire_bytes(), 28U);
  env.payload.resize(100);
  EXPECT_EQ(env.wire_bytes(), 128U);
  EXPECT_EQ(Envelope::kCrcTrailerBytes, 4U);
}

// --- schedule, fault and membership paths ---------------------------------
// Literal pins for every way the trainer drives a round besides the bare
// sequential step: a faulted run that abandons steps, a fault-free
// membership run with crashes and a poison spell, membership under faults,
// and the two event-driven schedules. Same-run-twice comparisons elsewhere
// cannot see a change that moves every run the same way; these can.

/// WAN faults with a tight retry budget: some steps exhaust it and are
/// abandoned, and delay spikes outlast the timeout window.
void faulted(core::SplitConfig& cfg) {
  cfg.faults.drop_rate = 0.1;
  cfg.faults.duplicate_rate = 0.05;
  cfg.faults.corrupt_rate = 0.05;
  cfg.faults.delay_spike_rate = 0.05;
  cfg.faults.delay_spike_sec = 3.0;
  cfg.recovery.timeout_sec = 2.0;
  cfg.recovery.backoff = 1.5;
  cfg.recovery.max_retries = 1;
}

/// Fault-free membership: a warm crash, a cold crash, a norm-bomb spell
/// that strikes platform 2 into quarantine, and a round deadline tight
/// enough to gate a step once.
void membership_churn(core::SplitConfig& cfg) {
  cfg.rounds = 12;
  cfg.membership.enabled = true;
  cfg.membership.round_deadline_sec = 0.1;
  cfg.membership.strikes_to_quarantine = 2;
  cfg.membership.quarantine_rounds = 2;
  cfg.membership.probation_readmit_prob = 1.0;
  cfg.churn.crashes.push_back(
      core::CrashEvent{0, /*round=*/3, 0.3, core::RejoinMode::kWarm});
  cfg.churn.crashes.push_back(
      core::CrashEvent{1, /*round=*/6, 0.3, core::RejoinMode::kCold});
  cfg.churn.poisons.push_back(core::PoisonEvent{
      2, /*round=*/4, /*duration_rounds=*/3, core::PoisonKind::kNormBomb,
      1.0e6F});
}

/// churn_test's chaos configuration: random poison spells, a cold outage
/// and WAN faults at once.
void chaos(core::SplitConfig& cfg) {
  cfg.rounds = 12;
  cfg.membership.enabled = true;
  cfg.membership.strikes_to_quarantine = 2;
  cfg.membership.quarantine_rounds = 2;
  cfg.membership.probation_readmit_prob = 1.0;
  core::ChurnRates rates;
  rates.poison_rate = 0.05;
  rates.poison_rounds = 2;
  cfg.churn = core::ChurnPlan::random(cfg.seed, 3, cfg.rounds, rates);
  cfg.churn.crashes.push_back(
      core::CrashEvent{1, /*round=*/5, 1.0, core::RejoinMode::kCold});
  cfg.faults.drop_rate = 0.03;
  cfg.faults.duplicate_rate = 0.03;
  cfg.faults.corrupt_rate = 0.03;
  cfg.recovery.timeout_sec = 5.0;
  cfg.recovery.backoff = 1.0;
  cfg.recovery.max_retries = 2;
}

const RunGolden kGoldenFaulted = {
    {19944, 35456, 51084, 70912, 86540, 104152, 128296, 146024, 163636,
     181248},
    {64, 44, 34, 33, 20, 26, 14, 15, 10, 15},
    {12, 19, 19, 21, 21, 27, 29, 29, 31, 32},
    {2.1122111893333337, 7.214376650666666, 12.326559840000002,
     17.438743029333338, 24.520881898666666, 26.633065087999995,
     30.745248277333324, 40.78732509866667, 42.899536288000022,
     45.01173627733337},
    {4, 16, 0, 0, 0, 0},
    0ULL};
const RunGolden kGoldenMembership = {
    {8976, 22224, 31056, 37602, 44148, 44148, 44148, 48564, 52980, 61890,
     70722, 79554},
    {63, 51, 40, 39, 35, 35, 35, 38, 34, 26, 26, 22},
    {8, 16, 21, 21, 16, 16, 16, 23, 25, 27, 29, 30},
    {0.10714816000000001, 0.219330688, 0.31147788799999998,
     0.37357936799999997, 0.43568084799999995, 0.43568084799999995,
     0.43568084799999995, 0.49576916799999993, 0.55585748800000001,
     0.64598176000000007, 0.72610540800000012, 0.80622905600000017},
    {0, 64, 2, 1, 2, 1},
    5101158823358627260ULL};
const RunGolden kGoldenChaos = {
    {19984, 33436, 46732, 60260, 71496, 80360, 89224, 100342, 212848,
     223968, 239480, 257364},
    {61, 45, 35, 33, 26, 26, 21, 26, 18, 22, 14, 14},
    {10, 18, 23, 21, 23, 26, 24, 23, 28, 31, 32, 31},
    {15.127184229333338, 15.254368458666676, 15.366551648000012,
     20.478734837333345, 20.573859973333345, 20.653984069333344,
     20.734108165333343, 30.81419102133334, 35.958652864000022,
     36.018748106666706, 46.070859456000051, 51.198043685333403},
    {0, 24, 2, 1, 0, 0},
    12415459336232294777ULL};
const RunGolden kGoldenOverlapped = {
    {13248, 26496, 39744, 52992, 66240, 79488, 92736, 105984, 119232,
     132480},
    {64, 44, 35, 33, 19, 26, 14, 15, 8, 14},
    {12, 19, 20, 22, 21, 28, 29, 31, 31, 32},
    {0.076067946666666664, 0.15213589333333333, 0.22820383999999999,
     0.30427178666666665, 0.38033973333333326, 0.45640767999999987,
     0.53247562666666659, 0.60854357333333331, 0.68461152000000003,
     0.76067946666666675},
    {0, 0, 0, 0, 0, 0},
    0ULL};
const RunGolden kGoldenBoundedStaleness = {
    {66240}, {23}, {23}, {0.357486784}, {0, 0, 0, 0, 0, 0}, 0ULL};
const RunGolden kGoldenBoundedStalenessEveryRound = {
    {4416, 8832, 17552, 22080, 26496, 33120, 37536, 42064, 48464, 55312,
     59616, 66240},
    {77, 54, 46, 44, 43, 38, 39, 34, 34, 33, 33, 23},
    {9, 11, 12, 8, 14, 17, 19, 17, 21, 20, 19, 23},
    {0.020035328000000002, 0.080123648000000006, 0.10015897600000002,
     0.15619159466666666, 0.17622692266666667, 0.19626225066666669,
     0.21527641600000003, 0.25635057066666667, 0.26533958400000002,
     0.31643889066666664, 0.32542790399999999, 0.357486784},
    {0, 0, 0, 0, 0, 0},
    0ULL};

TEST(GoldenPaths, FaultedRunWithAbandonedStepsMatchesFingerprint) {
  std::uint64_t ledger = 0;
  const auto report = golden_run(faulted, &ledger);
  EXPECT_GT(report.skipped_steps, 0) << "no step was abandoned";
  expect_run_fingerprint(report, ledger, kGoldenFaulted, "faulted");
}

TEST(GoldenPaths, MembershipChurnRunMatchesFingerprint) {
  std::uint64_t ledger = 0;
  const auto report = golden_run(membership_churn, &ledger);
  EXPECT_GT(report.rejected_updates, 0) << "the poison spell was not refused";
  EXPECT_GT(report.examples_lost, 0) << "no outage was served";
  expect_run_fingerprint(report, ledger, kGoldenMembership, "membership");
}

TEST(GoldenPaths, ChaosRunMatchesFingerprint) {
  std::uint64_t ledger = 0;
  const auto report = golden_run(chaos, &ledger);
  expect_run_fingerprint(report, ledger, kGoldenChaos, "chaos");
}

TEST(GoldenPaths, OverlappedRunMatchesFingerprint) {
  // Overlapped = bounded staleness with S = 0: every round drains fully.
  std::uint64_t ledger = 0;
  const auto report = golden_run(
      [](core::SplitConfig& cfg) {
        cfg.schedule = core::Schedule::kBoundedStaleness;
        cfg.staleness_bound = 0;
      },
      &ledger);
  expect_run_fingerprint(report, ledger, kGoldenOverlapped, "overlapped");
}

/// kBoundedStaleness at S=1 with participation 0.6, evaluating every
/// `eval_every` rounds of 12.
std::function<void(core::SplitConfig&)> bounded_staleness(int eval_every) {
  return [eval_every](core::SplitConfig& cfg) {
    cfg.schedule = core::Schedule::kBoundedStaleness;
    cfg.staleness_bound = 1;
    cfg.participation = 0.6;
    cfg.rounds = 12;
    cfg.eval_every = eval_every;
  };
}

TEST(GoldenPaths, EvaluationLeavesInFlightStepsAlone) {
  // Evaluating every round runs L1 and server inference while a straggler's
  // step is in flight. infer() touches no backward cache, so the run must
  // train exactly like the one evaluating only at the final drain: same
  // bytes, train loss, clock and accuracy there, same final parameters.
  // (While infer() fell back to forward(x, false), this run threw
  // `reshape [4, 192] -> [32, 3, 8, 8]` in the straggler's backward.) With
  // the planner off every layer runs its own infer(), the server's Linear
  // layers included.
  for (const bool planner : {true, false}) {
    nn::set_planner_enabled(planner);
    const std::string tag = planner ? "planner on" : "planner off";
    std::uint64_t ledger = 0;
    std::uint64_t params_every = 0;
    std::uint64_t params_end = 0;
    const auto every =
        golden_run(bounded_staleness(1), &ledger, &params_every);
    const auto at_end =
        golden_run(bounded_staleness(12), nullptr, &params_end);
    nn::set_planner_enabled(true);
    ASSERT_EQ(every.curve.size(), 12U) << tag;
    ASSERT_EQ(at_end.curve.size(), 1U) << tag;
    EXPECT_EQ(every.curve.back().cumulative_bytes,
              at_end.curve.back().cumulative_bytes) << tag;
    EXPECT_EQ(every.curve.back().train_loss, at_end.curve.back().train_loss)
        << tag;
    EXPECT_EQ(every.curve.back().sim_seconds,
              at_end.curve.back().sim_seconds) << tag;
    EXPECT_EQ(every.curve.back().test_accuracy,
              at_end.curve.back().test_accuracy) << tag;
    EXPECT_EQ(params_every, params_end) << tag;
    expect_run_fingerprint(
        every, ledger, kGoldenBoundedStalenessEveryRound,
        ("bounded staleness, evaluating every round, " + tag).c_str());
  }
}

TEST(GoldenPaths, BoundedStalenessRunMatchesFingerprint) {
  // One curve point, at the final full drain. Mid-run evaluation with a
  // straggler in flight is pinned by EvaluationLeavesInFlightStepsAlone.
  std::uint64_t ledger = 0;
  const auto report = golden_run(
      [](core::SplitConfig& cfg) {
        cfg.schedule = core::Schedule::kBoundedStaleness;
        cfg.staleness_bound = 1;
        cfg.participation = 0.6;
        cfg.rounds = 12;
        cfg.eval_every = 12;
      },
      &ledger);
  expect_run_fingerprint(report, ledger, kGoldenBoundedStaleness,
                         "bounded staleness");
}

// --- conv models ------------------------------------------------------------
// Every pin above trains the MLP. These train the two conv models of the
// paper's Fig. 4 at fig4's shape — K=4 zipf-0.8 shards, proportional
// minibatches summing to 32, 16x16 synthetic CIFAR — for six sequential
// rounds, so a change to the conv lowering (im2col/col2im, GEMM packing and
// tiling, the parameter-only L1 backward) cannot move the training
// trajectory unseen. vgg-mini runs every conv through the stride-1 same-size
// path; resnet-mini adds BatchNorm, stride-2 and 1x1 projection convs.

struct ConvGolden {
  std::vector<std::uint64_t> bytes;
  std::vector<double> loss;  ///< exact train loss per curve point
  std::vector<double> accuracy;  ///< exact test accuracy per curve point
  std::vector<double> sim_seconds;
  /// FNV-1a over the bytes of every final platform L1 parameter (platform
  /// order), then every server parameter.
  std::uint64_t params = 0;
};

ConvGolden conv_run(const std::string& model, WireCodec codec, int threads) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = 256;
  opt.num_classes = 10;
  opt.image_size = 16;
  opt.noise_stddev = 0.8F;
  opt.seed = 42;
  const data::SyntheticCifar train(opt);
  opt.num_examples = 32;
  opt.index_offset = 256;
  const data::SyntheticCifar test(opt);
  Rng prng(7);
  const auto partition = data::partition_zipf(train.size(), 4, 0.8, prng);
  core::SplitConfig cfg;
  cfg.codec = codec;
  cfg.total_batch = 32;
  cfg.policy = core::MinibatchPolicy::kProportional;
  cfg.rounds = 6;
  cfg.eval_every = 1;
  cfg.sgd.learning_rate = 0.02F;
  cfg.sgd.momentum = 0.5F;
  cfg.threads = threads;
  core::SplitTrainer trainer(
      [model] {
        models::FactoryConfig f;
        f.name = model;
        f.image_size = 16;
        f.num_classes = 10;
        return models::build_model(f);
      },
      train, partition, test, cfg);
  const metrics::TrainReport report = trainer.run();
  ConvGolden out;
  for (const auto& p : report.curve) {
    out.bytes.push_back(p.cumulative_bytes);
    out.loss.push_back(p.train_loss);
    out.accuracy.push_back(p.test_accuracy);
    out.sim_seconds.push_back(p.sim_seconds);
  }
  out.params = parameter_fingerprint(trainer);
  set_global_threads(0);
  return out;
}

void expect_conv_golden(const ConvGolden& got, const ConvGolden& want,
                        const std::string& tag) {
  EXPECT_EQ(got.bytes, want.bytes) << tag;
  EXPECT_EQ(got.loss, want.loss) << tag;
  EXPECT_EQ(got.accuracy, want.accuracy) << tag;
  EXPECT_EQ(got.sim_seconds, want.sim_seconds) << tag;
  EXPECT_EQ(got.params, want.params) << tag;
  if (::testing::Test::HasFailure()) {
    std::ostringstream os;
    os << std::setprecision(17) << "{{";
    for (std::size_t i = 0; i < got.bytes.size(); ++i) {
      os << (i ? ", " : "") << got.bytes[i];
    }
    os << "},\n {";
    for (std::size_t i = 0; i < got.loss.size(); ++i) {
      os << (i ? ", " : "") << got.loss[i];
    }
    os << "},\n {";
    for (std::size_t i = 0; i < got.accuracy.size(); ++i) {
      os << (i ? ", " : "") << got.accuracy[i];
    }
    os << "},\n {";
    for (std::size_t i = 0; i < got.sim_seconds.size(); ++i) {
      os << (i ? ", " : "") << got.sim_seconds[i];
    }
    os << "},\n " << got.params << "ULL};";
    ADD_FAILURE() << tag << " conv pins — actual:\n" << os.str();
  }
}

const ConvGolden kGoldenVggMini = {
    {1052032, 2104064, 3156096, 4208128, 5260160, 6312192},
    {10.40799617767334, 2.4880062937736511, 2.3217581510543823,
     2.3036471605300903, 2.3262982964515686, 2.2909799814224243},
    {0.1875, 0.1171875, 0.0859375, 0.15625, 0.09375, 0.09375},
    {0.20664354133333326, 0.41328708266666675, 0.61993062400000021,
     0.82657416533333361, 1.033217706666667, 1.2398612480000004},
    1375199715319974949ULL};
const ConvGolden kGoldenResnetMiniI8 = {
    {265632, 531264, 796896, 1062528, 1328160, 1593792},
    {2.7069663405418396, 2.5777868628501892, 2.430675745010376,
     2.1780709624290466, 2.4728310108184814, 1.8595578372478485},
    {0.125, 0.09375, 0.1015625, 0.1875, 0.1796875, 0.15625},
    {0.19569957333333329, 0.39139914666666686, 0.5870987200000003,
     0.78279829333333384, 0.97849786666666738, 1.1741974400000006},
    6983722738972508030ULL};

/// Runs `model` at threads {1, 3} with the planner on and off against the
/// same pins: the eval path (Sequential::infer, the BN-fused groups and
/// ResidualBlock::infer) is pinned through test_accuracy both ways.
void expect_conv_model(const std::string& model, WireCodec codec,
                       const ConvGolden& golden) {
  for (const bool planner : {true, false}) {
    nn::set_planner_enabled(planner);
    for (const int threads : {1, 3}) {
      expect_conv_golden(conv_run(model, codec, threads), golden,
                         model + " threads=" + std::to_string(threads) +
                             (planner ? " planner on" : " planner off"));
    }
  }
  nn::set_planner_enabled(true);
}

TEST(GoldenConv, VggMiniF32MatchesFingerprint) {
  expect_conv_model("vgg-mini", WireCodec::kF32, kGoldenVggMini);
}

TEST(GoldenConv, ResnetMiniI8MatchesFingerprint) {
  expect_conv_model("resnet-mini", WireCodec::kI8, kGoldenResnetMiniI8);
}

}  // namespace
}  // namespace splitmed
