// Tests for the protocol extensions: int8 wire compression, smashed-data
// noise defense, overlapped scheduling, and partial participation (fault
// injection).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/common/error.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/models/factory.hpp"
#include "src/privacy/distance_correlation.hpp"
#include "src/serial/codec.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed {
namespace {

// ---------------------------------------------------------------- quantize
// The kI8 case of the tagged wire format (src/serial/codec.hpp).

/// One int8 quantization step for data of amplitude max_abs (symmetric
/// per-tensor scale max_abs / 127); the worst-case element error is half.
float quantization_step(float max_abs) { return max_abs / 127.0F; }

/// Decodes one tagged frame, which must carry the kI8 codec.
Tensor decode_i8(BufferReader& r) {
  TaggedTensor tagged = decode_tensor_tagged(r);
  EXPECT_EQ(tagged.codec, WireCodec::kI8);
  return std::move(tagged.tensor);
}

class QuantizeRoundTrip : public ::testing::TestWithParam<Shape> {};

TEST_P(QuantizeRoundTrip, ErrorBoundedByHalfStep) {
  Rng rng(1);
  const Tensor t = Tensor::normal(GetParam(), rng, 0.0F, 2.0F);
  BufferWriter w;
  encode_tensor_tagged(t, WireCodec::kI8, w);
  EXPECT_EQ(w.size(), encoded_tensor_bytes(t.shape(), WireCodec::kI8));
  BufferReader r({w.bytes().data(), w.bytes().size()});
  const Tensor back = decode_i8(r);
  EXPECT_EQ(back.shape(), t.shape());
  float max_abs = 0.0F;
  for (const float v : t.data()) max_abs = std::max(max_abs, std::abs(v));
  const float half_step = 0.5F * quantization_step(max_abs) + 1e-6F;
  if (t.numel() > 0) {
    EXPECT_LE(ops::max_abs_diff(t, back), half_step);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QuantizeRoundTrip,
                         ::testing::Values(Shape{0}, Shape{1}, Shape{17},
                                           Shape{4, 5}, Shape{2, 3, 4, 5}));

TEST(Quantize, AllZerosRoundTripExactly) {
  const Tensor t(Shape{8});
  BufferWriter w;
  encode_tensor_tagged(t, WireCodec::kI8, w);
  BufferReader r({w.bytes().data(), w.bytes().size()});
  const Tensor back = decode_i8(r);
  EXPECT_EQ(ops::max_abs_diff(t, back), 0.0F);
}

TEST(Quantize, RejectsNaNInput) {
  Tensor t(Shape{3});
  t.data()[1] = std::numeric_limits<float>::quiet_NaN();
  BufferWriter w;
  EXPECT_THROW(encode_tensor_tagged(t, WireCodec::kI8, w), SerializationError);
}

TEST(Quantize, RejectsInfInput) {
  Tensor pos(Shape{3});
  pos.data()[2] = std::numeric_limits<float>::infinity();
  BufferWriter w;
  EXPECT_THROW(encode_tensor_tagged(pos, WireCodec::kI8, w),
               SerializationError);

  Tensor neg(Shape{3});
  neg.data()[0] = -std::numeric_limits<float>::infinity();
  BufferWriter w2;
  EXPECT_THROW(encode_tensor_tagged(neg, WireCodec::kI8, w2),
               SerializationError);
}

TEST(Quantize, TiesRoundHalfAwayFromZero) {
  // max_abs = 127 makes the scale exactly 1.0, so the quantized codes are
  // just the rounded inputs. Half-away-from-zero gives 2.5 -> 3 and
  // -2.5 -> -3; nearbyint under the default round-to-even mode would
  // produce 2 / -2 / 0 instead.
  Tensor t(Shape{5});
  const float vals[] = {127.0F, 2.5F, -2.5F, 0.5F, -0.5F};
  std::copy(std::begin(vals), std::end(vals), t.data().begin());
  BufferWriter w;
  encode_tensor_tagged(t, WireCodec::kI8, w);
  BufferReader r({w.bytes().data(), w.bytes().size()});
  const Tensor back = decode_i8(r);
  const float expected[] = {127.0F, 3.0F, -3.0F, 1.0F, -1.0F};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back.data()[i], expected[i]) << "element " << i;
  }
}

TEST(Quantize, FourTimesSmallerThanF32) {
  const Shape big{1000};
  // 4 + 8 + 4 + 1000 vs 4 + 8 + 4000.
  EXPECT_LT(encoded_tensor_bytes(big, WireCodec::kI8) * 3, 4U + 8 + 4000);
}

/// The header word of a kI8 frame: codec tag in the high byte, then rank.
std::uint32_t i8_header(std::uint32_t rank) {
  return (static_cast<std::uint32_t>(WireCodec::kI8) << 24) | rank;
}

TEST(Quantize, RejectsHostileHeaders) {
  BufferWriter w;
  w.write_u32(i8_header(99));  // absurd rank
  BufferReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_THROW(decode_tensor_tagged(r), SerializationError);
}

TEST(Quantize, RejectsTruncatedPayload) {
  BufferWriter w;
  w.write_u32(i8_header(1));
  w.write_i64(100);
  w.write_f32(0.1F);  // scale, then no int8 payload at all
  BufferReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_THROW(decode_tensor_tagged(r), SerializationError);
}

// --------------------------------------------------- trainer extensions

data::SyntheticCifar make_dataset(std::int64_t n, std::int64_t offset = 0) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = n;
  opt.num_classes = 4;
  opt.image_size = 8;
  opt.noise_stddev = 0.1F;
  opt.index_offset = offset;
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
  cfg.rounds = 30;
  cfg.eval_every = 30;
  cfg.sgd.learning_rate = 0.02F;
  cfg.sgd.momentum = 0.5F;
  return cfg;
}

TEST(QuantizedProtocol, ShrinksTrafficAndStillLearns) {
  const auto train = make_dataset(96);
  const auto test = make_dataset(32, 96);
  Rng prng(1);
  const auto partition = data::partition_iid(train.size(), 2, prng);

  auto cfg = base_config();
  core::SplitTrainer f32(builder(), train, partition, test, cfg);
  const auto f32_report = f32.run();

  cfg.codec = WireCodec::kI8;
  core::SplitTrainer i8(builder(), train, partition, test, cfg);
  const auto i8_report = i8.run();

  // Activations + cut grads shrink ~4x; logits stay f32, so total is
  // somewhere between 2x and 4x smaller.
  EXPECT_LT(i8_report.total_bytes * 2, f32_report.total_bytes);
  EXPECT_GT(i8_report.final_accuracy, 0.5);
}

TEST(SmashNoise, BytesUnchangedLeakageReduced) {
  const auto train = make_dataset(96);
  const auto test = make_dataset(32, 96);
  Rng prng(2);
  const auto partition = data::partition_iid(train.size(), 2, prng);

  auto cfg = base_config();
  cfg.rounds = 5;
  cfg.eval_every = 5;
  core::SplitTrainer clean(builder(), train, partition, test, cfg);
  const auto clean_report = clean.run();

  cfg.smash_noise_std = 0.5F;
  core::SplitTrainer noisy(builder(), train, partition, test, cfg);
  const auto noisy_report = noisy.run();

  EXPECT_EQ(clean_report.total_bytes, noisy_report.total_bytes);
}

TEST(SmashNoise, HeavyNoiseDegradesAccuracy) {
  const auto train = make_dataset(96);
  const auto test = make_dataset(32, 96);
  Rng prng(3);
  const auto partition = data::partition_iid(train.size(), 2, prng);

  auto cfg = base_config();
  core::SplitTrainer clean(builder(), train, partition, test, cfg);
  const double clean_acc = clean.run().final_accuracy;

  cfg.smash_noise_std = 50.0F;  // drown the signal
  core::SplitTrainer noisy(builder(), train, partition, test, cfg);
  const double noisy_acc = noisy.run().final_accuracy;
  EXPECT_GT(clean_acc, noisy_acc + 0.2);
}

TEST(OverlappedSchedule, SameBytesLessSimTime) {
  const auto train = make_dataset(128);
  const auto test = make_dataset(32, 128);
  Rng prng(4);
  const auto partition = data::partition_iid(train.size(), 4, prng);

  auto cfg = base_config();
  cfg.schedule = core::Schedule::kSequential;
  core::SplitTrainer seq(builder(), train, partition, test, cfg);
  const auto seq_report = seq.run();

  cfg.schedule = core::Schedule::kBoundedStaleness;
  cfg.staleness_bound = 0;
  core::SplitTrainer ovl(builder(), train, partition, test, cfg);
  const auto ovl_report = ovl.run();

  EXPECT_EQ(seq_report.total_bytes, ovl_report.total_bytes);
  EXPECT_LT(ovl_report.total_sim_seconds, seq_report.total_sim_seconds);
  EXPECT_GT(ovl_report.final_accuracy, 0.5);
}

TEST(OverlappedSchedule, SinglePlatformMatchesSequentialExactly) {
  const auto train = make_dataset(64);
  const auto test = make_dataset(16, 64);
  std::vector<std::int64_t> shard(64);
  for (std::int64_t i = 0; i < 64; ++i) shard[i] = i;

  auto cfg = base_config();
  cfg.rounds = 5;
  cfg.eval_every = 5;
  cfg.schedule = core::Schedule::kSequential;
  core::SplitTrainer seq(builder(), train, {shard}, test, cfg);
  seq.run();

  cfg.schedule = core::Schedule::kBoundedStaleness;
  cfg.staleness_bound = 0;
  core::SplitTrainer ovl(builder(), train, {shard}, test, cfg);
  ovl.run();

  const auto ps = seq.platform(0).l1().parameters();
  const auto po = ovl.platform(0).l1().parameters();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(ops::max_abs_diff(ps[i]->value, po[i]->value), 0.0F);
  }
}

TEST(Participation, PartialParticipationReducesTrafficButKeepsLiveness) {
  const auto train = make_dataset(128);
  const auto test = make_dataset(32, 128);
  Rng prng(5);
  const auto partition = data::partition_iid(train.size(), 4, prng);

  auto cfg = base_config();
  core::SplitTrainer full(builder(), train, partition, test, cfg);
  const auto full_report = full.run();

  cfg.participation = 0.5;
  core::SplitTrainer half(builder(), train, partition, test, cfg);
  const auto half_report = half.run();

  EXPECT_LT(half_report.total_bytes, full_report.total_bytes);
  EXPECT_EQ(half_report.steps_completed, cfg.rounds);
  // Every platform took at least one step across 30 rounds at p=0.5.
  for (std::size_t p = 0; p < half.num_platforms(); ++p) {
    EXPECT_GT(half.platform(p).steps_completed(), 0);
  }
}

TEST(Participation, TinyProbabilityStillRunsEveryRound) {
  const auto train = make_dataset(64);
  const auto test = make_dataset(16, 64);
  Rng prng(6);
  const auto partition = data::partition_iid(train.size(), 3, prng);
  auto cfg = base_config();
  cfg.rounds = 10;
  cfg.eval_every = 10;
  cfg.participation = 1e-6;
  core::SplitTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  // The liveness fallback nominates exactly one platform per round.
  std::int64_t total_steps = 0;
  for (std::size_t p = 0; p < trainer.num_platforms(); ++p) {
    total_steps += trainer.platform(p).steps_completed();
  }
  EXPECT_EQ(total_steps, 10);
  EXPECT_EQ(report.steps_completed, 10);
}

TEST(Participation, InvalidValuesRejected) {
  const auto train = make_dataset(32);
  const auto test = make_dataset(8, 32);
  auto cfg = base_config();
  cfg.participation = 0.0;
  EXPECT_THROW(
      core::SplitTrainer(builder(), train, {{0, 1, 2, 3}}, test, cfg),
      InvalidArgument);
}


TEST(CombinedExtensions, QuantizedOverlappedNoisyPartialStillLearns) {
  // All four extensions stacked: int8 wire + overlapped schedule + mild
  // noise + 80% participation must still converge (integration smoke for
  // interactions between the features).
  const auto train = make_dataset(128);
  const auto test = make_dataset(32, 128);
  Rng prng(9);
  const auto partition = data::partition_iid(train.size(), 4, prng);
  auto cfg = base_config();
  cfg.rounds = 40;
  cfg.eval_every = 40;
  cfg.codec = WireCodec::kI8;
  cfg.schedule = core::Schedule::kBoundedStaleness;
  cfg.staleness_bound = 0;
  cfg.smash_noise_std = 0.05F;
  cfg.participation = 0.8;
  core::SplitTrainer trainer(builder(), train, partition, test, cfg);
  const auto report = trainer.run();
  EXPECT_GT(report.final_accuracy, 0.5);
}

}  // namespace
}  // namespace splitmed
