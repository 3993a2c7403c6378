// Full-state checkpoint unit tests: the SMCKPT02 section container, atomic
// file publication, and the per-object state round-trips (Rng, DataLoader,
// BatchNorm running statistics, SGD/Adam accumulators, TrafficStats,
// Network). The round-trip tests follow one discipline: save, PERTURB the
// live object, load, and require bitwise-identical behaviour afterwards —
// proving the checkpoint actually carries the state rather than the test
// passively observing an unchanged object.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/data/dataloader.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/net/network.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/checkpoint.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/sequential.hpp"
#include "src/optim/adam.hpp"
#include "src/optim/sgd.hpp"
#include "src/serial/section_file.hpp"
#include "src/serial/state_codec.hpp"

namespace splitmed {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::vector<float> tensor_copy(const Tensor& t) {
  auto d = t.data();
  return {d.begin(), d.end()};
}

// ---------------------------------------------------------------- container

TEST(SectionFile, RoundTripPreservesSectionsInOrder) {
  SectionFileWriter w;
  BufferWriter a;
  a.write_u64(42);
  a.write_string("hello");
  w.add("alpha", std::move(a));
  w.add("empty", std::vector<std::uint8_t>{});
  w.add("beta", std::vector<std::uint8_t>{1, 2, 3, 255});

  const auto bytes = w.encode();
  const auto file = SectionFileReader::decode({bytes.data(), bytes.size()},
                                              "test");
  ASSERT_EQ(file.sections().size(), 3U);
  EXPECT_EQ(file.sections()[0].name, "alpha");
  EXPECT_EQ(file.sections()[1].name, "empty");
  EXPECT_EQ(file.sections()[2].name, "beta");
  EXPECT_TRUE(file.has("empty"));
  EXPECT_FALSE(file.has("gamma"));
  EXPECT_TRUE(file.payload("empty").empty());
  EXPECT_EQ(file.payload("beta"), (std::vector<std::uint8_t>{1, 2, 3, 255}));

  BufferReader r = file.reader("alpha");
  EXPECT_EQ(r.read_u64(), 42U);
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_TRUE(r.exhausted());

  EXPECT_THROW((void)file.payload("gamma"), SerializationError);
}

// The SMCKPT02 encoding, byte for byte: magic, section count, then per
// section the name, the payload length, the payload and the CRC-32 trailer
// over the record. The 70-byte payload makes a record longer than a few
// 16-byte blocks, so the trailer covers both the block and the tail path of
// crc32. Any change to the writer must leave these bytes alone.
TEST(SectionFile, EncodedBytesArePinned) {
  std::vector<std::uint8_t> seventy(70);
  for (std::size_t i = 0; i < seventy.size(); ++i) {
    seventy[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  SectionFileWriter w;
  w.add("empty", std::vector<std::uint8_t>{});
  w.add("four", std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF});
  w.add("seventy", std::move(seventy));

  const std::vector<std::uint8_t> expected = {
      0x53, 0x4D, 0x43, 0x4B, 0x50, 0x54, 0x30, 0x32, 0x03, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x65, 0x6D, 0x70, 0x74, 0x79, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x1B, 0xE0, 0xC5, 0x04, 0x00, 0x00,
      0x00, 0x66, 0x6F, 0x75, 0x72, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0xDE, 0xAD, 0xBE, 0xEF, 0x17, 0x41, 0xE4, 0xD7, 0x07, 0x00, 0x00,
      0x00, 0x73, 0x65, 0x76, 0x65, 0x6E, 0x74, 0x79, 0x46, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x0B, 0x30, 0x55, 0x7A, 0x9F, 0xC4, 0xE9, 0x0E,
      0x33, 0x58, 0x7D, 0xA2, 0xC7, 0xEC, 0x11, 0x36, 0x5B, 0x80, 0xA5, 0xCA,
      0xEF, 0x14, 0x39, 0x5E, 0x83, 0xA8, 0xCD, 0xF2, 0x17, 0x3C, 0x61, 0x86,
      0xAB, 0xD0, 0xF5, 0x1A, 0x3F, 0x64, 0x89, 0xAE, 0xD3, 0xF8, 0x1D, 0x42,
      0x67, 0x8C, 0xB1, 0xD6, 0xFB, 0x20, 0x45, 0x6A, 0x8F, 0xB4, 0xD9, 0xFE,
      0x23, 0x48, 0x6D, 0x92, 0xB7, 0xDC, 0x01, 0x26, 0x4B, 0x70, 0x95, 0xBA,
      0xDF, 0x04, 0xDC, 0x95, 0xCC, 0x44,
  };
  EXPECT_EQ(w.encode(), expected);
}

TEST(SectionFile, WriterRejectsDuplicateAndEmptyNames) {
  SectionFileWriter w;
  w.add("a", std::vector<std::uint8_t>{});
  EXPECT_THROW(w.add("a", std::vector<std::uint8_t>{}), Error);
  EXPECT_THROW(w.add("", std::vector<std::uint8_t>{}), Error);
}

TEST(SectionFile, AtomicWriteReplacesAndLeavesNoTempFile) {
  const std::string path = temp_path("atomic_write_test.bin");
  const std::vector<std::uint8_t> first = {1, 2, 3};
  const std::vector<std::uint8_t> second = {9, 9, 9, 9};
  atomic_write_file(path, {first.data(), first.size()});
  atomic_write_file(path, {second.data(), second.size()});
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> got((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  EXPECT_EQ(got, second);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove(path);
}

// --------------------------------------------------------------------- Rng

TEST(StateCodec, RngRoundTripContinuesTheStream) {
  Rng rng(12345);
  for (int i = 0; i < 17; ++i) (void)rng.next_u64();
  // Park a Box-Muller cache so the flag path is exercised too.
  (void)rng.normal();

  BufferWriter w;
  encode_rng(rng, w);
  std::vector<std::uint64_t> expect_u64;
  std::vector<float> expect_normal;
  for (int i = 0; i < 8; ++i) expect_normal.push_back(rng.normal());
  for (int i = 0; i < 8; ++i) expect_u64.push_back(rng.next_u64());

  // Perturb, then restore into the same generator.
  for (int i = 0; i < 99; ++i) (void)rng.uniform();
  BufferReader r({w.bytes().data(), w.size()});
  decode_rng(r, rng);
  EXPECT_TRUE(r.exhausted());
  for (const float v : expect_normal) EXPECT_EQ(rng.normal(), v);
  for (const std::uint64_t v : expect_u64) EXPECT_EQ(rng.next_u64(), v);
}

TEST(StateCodec, RngRejectsBadNormalFlag) {
  Rng rng(1);
  BufferWriter w;
  encode_rng(rng, w);
  auto bytes = w.take();
  bytes.back() = 7;  // has_cached_normal must be 0/1
  BufferReader r({bytes.data(), bytes.size()});
  EXPECT_THROW(decode_rng(r, rng), SerializationError);
}

// --------------------------------------------------------------- DataLoader

data::SyntheticCifar small_dataset() {
  data::SyntheticCifarOptions opt;
  opt.num_examples = 24;
  opt.num_classes = 4;
  opt.image_size = 6;
  return data::SyntheticCifar(opt);
}

TEST(DataLoaderState, RoundTripResumesTheExactBatchSequence) {
  const auto ds = small_dataset();
  std::vector<std::int64_t> shard;
  for (std::int64_t i = 0; i < 24; ++i) shard.push_back(i);
  data::DataLoader loader(ds, shard, 5, Rng(77), /*drop_last=*/true);
  for (int i = 0; i < 7; ++i) (void)loader.next_batch();  // mid-epoch cursor

  BufferWriter w;
  loader.save_state(w);
  std::vector<std::vector<std::int64_t>> expect_labels;
  for (int i = 0; i < 6; ++i) expect_labels.push_back(loader.next_batch().labels);

  for (int i = 0; i < 3; ++i) (void)loader.next_batch();  // perturb
  BufferReader r({w.bytes().data(), w.size()});
  loader.load_state(r);
  EXPECT_TRUE(r.exhausted());
  for (const auto& labels : expect_labels) {
    EXPECT_EQ(loader.next_batch().labels, labels);
  }
}

TEST(DataLoaderState, RejectsForeignPermutationAndBadCursor) {
  const auto ds = small_dataset();
  std::vector<std::int64_t> shard_a;
  std::vector<std::int64_t> shard_b;
  for (std::int64_t i = 0; i < 12; ++i) shard_a.push_back(i);
  for (std::int64_t i = 12; i < 24; ++i) shard_b.push_back(i);
  data::DataLoader a(ds, shard_a, 3, Rng(1));
  data::DataLoader b(ds, shard_b, 3, Rng(2));

  BufferWriter w;
  b.save_state(w);
  // A's shard is {0..11}, the saved permutation covers {12..23}: refused.
  BufferReader r({w.bytes().data(), w.size()});
  EXPECT_THROW(a.load_state(r), SerializationError);

  // Cursor beyond the shard size: refused.
  BufferWriter w2;
  a.save_state(w2);
  auto bytes = w2.take();
  // Layout: u64 count, count x i64 indices, u64 cursor, rng. Overwrite the
  // cursor with a huge value.
  const std::size_t cursor_at = 8 + 12 * 8;
  for (std::size_t i = 0; i < 8; ++i) bytes[cursor_at + i] = 0xFF;
  BufferReader r2({bytes.data(), bytes.size()});
  EXPECT_THROW(a.load_state(r2), SerializationError);
}

// ---------------------------------------------------------------- BatchNorm

TEST(BatchNormState, RunningStatsRoundTripIsBitwise) {
  Rng rng(5);
  nn::BatchNorm2d bn(3);
  const Tensor fixed = Tensor::normal(Shape{2, 3, 4, 4}, rng);
  for (int i = 0; i < 4; ++i) {
    (void)bn.forward(Tensor::normal(Shape{2, 3, 4, 4}, rng), true);
  }

  // Snapshot state + reference behaviour on the fixed batch.
  BufferWriter params_w;
  write_parameters(params_w, bn.parameters());
  BufferWriter extra_w;
  bn.save_extra_state(extra_w);
  const auto eval_ref = tensor_copy(bn.forward(fixed, false));
  (void)bn.forward(fixed, true);
  bn.zero_grad();
  Rng grad_rng(9);
  const Tensor grad = Tensor::normal(Shape{2, 3, 4, 4}, grad_rng);
  const auto back_ref = tensor_copy(bn.backward(grad));
  const auto gamma_grad_ref = tensor_copy(bn.parameters()[0]->grad);

  // Perturb: more training forwards move the running stats; scale gamma.
  for (int i = 0; i < 5; ++i) {
    (void)bn.forward(Tensor::normal(Shape{2, 3, 4, 4}, rng), true);
  }
  for (auto& v : bn.parameters()[0]->value.data()) v *= 1.5F;
  ASSERT_NE(tensor_copy(bn.forward(fixed, false)), eval_ref);

  // Restore and require bitwise-equal forward AND backward.
  BufferReader params_r({params_w.bytes().data(), params_w.size()});
  read_parameters(params_r, bn.parameters(), "test");
  BufferReader extra_r({extra_w.bytes().data(), extra_w.size()});
  bn.load_extra_state(extra_r);
  EXPECT_TRUE(extra_r.exhausted());
  EXPECT_EQ(tensor_copy(bn.forward(fixed, false)), eval_ref);
  (void)bn.forward(fixed, true);
  bn.zero_grad();
  EXPECT_EQ(tensor_copy(bn.backward(grad)), back_ref);
  EXPECT_EQ(tensor_copy(bn.parameters()[0]->grad), gamma_grad_ref);
}

TEST(BatchNormState, RejectsWrongChannelCount) {
  nn::BatchNorm2d bn3(3);
  nn::BatchNorm2d bn4(4);
  BufferWriter w;
  bn4.save_extra_state(w);
  BufferReader r({w.bytes().data(), w.size()});
  EXPECT_THROW(bn3.load_extra_state(r), SerializationError);
}

TEST(SequentialState, RejectsLayerCountMismatch) {
  Rng rng(3);
  nn::Sequential two;
  two.emplace<nn::Linear>(4, 4, rng);
  two.emplace<nn::Linear>(4, 2, rng);
  nn::Sequential one;
  one.emplace<nn::Linear>(4, 2, rng);
  BufferWriter w;
  two.save_extra_state(w);
  BufferReader r({w.bytes().data(), w.size()});
  EXPECT_THROW(one.load_extra_state(r), SerializationError);
}

// --------------------------------------------------------------- optimizers

/// One deterministic training step on a tiny linear model.
void sgd_like_step(nn::Sequential& net, optim::Optimizer& opt,
                   const Tensor& x, const Tensor& grad) {
  (void)net.forward(x, true);
  net.zero_grad();
  (void)net.backward(grad);
  opt.step();
}

template <typename Opt, typename Options>
void optimizer_round_trip(Options options) {
  Rng rng(21);
  nn::Sequential net;
  net.emplace<nn::Linear>(6, 3, rng);
  Opt opt(net.parameters(), options);
  const Tensor x = Tensor::normal(Shape{4, 6}, rng);
  const Tensor grad = Tensor::normal(Shape{4, 3}, rng);
  for (int i = 0; i < 3; ++i) sgd_like_step(net, opt, x, grad);

  // Snapshot params + accumulators, then run the reference continuation.
  BufferWriter params_w;
  write_parameters(params_w, net.parameters());
  BufferWriter opt_w;
  opt.save_state(opt_w);
  for (int i = 0; i < 2; ++i) sgd_like_step(net, opt, x, grad);
  const auto expect = tensor_copy(net.parameters()[0]->value);

  // Perturb far past the snapshot, restore, replay the same continuation.
  for (int i = 0; i < 4; ++i) sgd_like_step(net, opt, x, grad);
  BufferReader params_r({params_w.bytes().data(), params_w.size()});
  read_parameters(params_r, net.parameters(), "test");
  BufferReader opt_r({opt_w.bytes().data(), opt_w.size()});
  opt.load_state(opt_r);
  EXPECT_TRUE(opt_r.exhausted());
  for (int i = 0; i < 2; ++i) sgd_like_step(net, opt, x, grad);
  // Bitwise equality: the accumulators (velocity / moments / step count)
  // were restored exactly, so the continuation is the same float sequence.
  EXPECT_EQ(tensor_copy(net.parameters()[0]->value), expect);
}

TEST(OptimizerState, SgdMomentumRoundTripIsBitwise) {
  optim::SgdOptions o;
  o.learning_rate = 0.05F;
  o.momentum = 0.9F;
  optimizer_round_trip<optim::Sgd>(o);
}

TEST(OptimizerState, AdamMomentsRoundTripIsBitwise) {
  optim::AdamOptions o;
  o.learning_rate = 0.01F;
  optimizer_round_trip<optim::Adam>(o);
}

TEST(OptimizerState, SgdRejectsMismatchedShapes) {
  Rng rng(2);
  nn::Sequential small;
  small.emplace<nn::Linear>(4, 2, rng);
  nn::Sequential big;
  big.emplace<nn::Linear>(8, 2, rng);
  optim::SgdOptions o;
  o.momentum = 0.5F;
  optim::Sgd opt_small(small.parameters(), o);
  optim::Sgd opt_big(big.parameters(), o);
  BufferWriter w;
  opt_big.save_state(w);
  BufferReader r({w.bytes().data(), w.size()});
  EXPECT_THROW(opt_small.load_state(r), SerializationError);
}

// ----------------------------------------------------- parameter file (v01)

TEST(ParameterFile, TruncatedOrGarbageFileNeverPartiallyLoads) {
  Rng rng(31);
  nn::Sequential net;
  net.emplace<nn::Linear>(5, 4, rng);
  net.emplace<nn::Linear>(4, 2, rng);
  const std::string path = temp_path("params_partial_load.smckpt");
  save_parameters(path, net.parameters());

  // Read the full image back so we can produce corrupted variants.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> image((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();

  const auto snapshot = [&] {
    std::vector<std::vector<float>> s;
    for (auto* p : net.parameters()) s.push_back(tensor_copy(p->value));
    return s;
  };
  // Distinct values so a partial load would be visible.
  for (auto* p : net.parameters()) {
    for (auto& v : p->value.data()) v += 100.0F;
  }
  const auto before = snapshot();

  // Truncation at several points, including inside the SECOND parameter —
  // the first must not be applied either.
  for (const std::size_t keep :
       {image.size() - 1, image.size() - 8, image.size() / 2, std::size_t{12}}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_THROW(load_parameters(path, net.parameters()), SerializationError);
    EXPECT_EQ(snapshot(), before) << "partial load after truncation to "
                                  << keep;
  }

  // Trailing garbage: rejected, and still no partial load.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    out.write("junk", 4);
    out.close();
    EXPECT_THROW(load_parameters(path, net.parameters()), SerializationError);
    EXPECT_EQ(snapshot(), before);
  }

  // The intact file loads, and the error cases above were real: values move.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    out.close();
    load_parameters(path, net.parameters());
    EXPECT_NE(snapshot(), before);
  }
  fs::remove(path);
}

TEST(ParameterFile, ShortReadErrorNamesParameterAndShape) {
  Rng rng(32);
  nn::Sequential net;
  net.emplace<nn::Linear>(3, 2, rng);
  const std::string path = temp_path("params_short_read.smckpt");
  save_parameters(path, net.parameters());
  std::ifstream in(path, std::ios::binary);
  std::vector<char> image((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(image.data(), static_cast<std::streamsize>(image.size() - 3));
  out.close();
  try {
    load_parameters(path, net.parameters());
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    const std::string what = e.what();
    // The message must point at the offending parameter and its shape.
    EXPECT_NE(what.find(net.parameters().back()->name), std::string::npos)
        << what;
    EXPECT_NE(what.find(net.parameters().back()->value.shape().str()),
              std::string::npos)
        << what;
  }
  fs::remove(path);
}

// ------------------------------------------------------------- net accounts

TEST(TrafficStatsState, RoundTripPreservesEveryCounter) {
  net::TrafficStats stats;
  Envelope e = make_envelope(0, 1, 2, 7, std::vector<std::uint8_t>(100));
  stats.record(e);
  e.kind = 3;
  stats.record(e, 64);
  stats.record_retransmit(50);
  stats.record_duplicate(60);
  stats.record_dropped(70);
  stats.record_corrupted(80);

  BufferWriter w;
  stats.save_state(w);
  net::TrafficStats loaded;
  BufferReader r({w.bytes().data(), w.size()});
  loaded.load_state(r);
  EXPECT_TRUE(r.exhausted());

  EXPECT_EQ(loaded.total_bytes(), stats.total_bytes());
  EXPECT_EQ(loaded.total_messages(), stats.total_messages());
  EXPECT_EQ(loaded.retransmits(), stats.retransmits());
  EXPECT_EQ(loaded.retransmit_bytes(), stats.retransmit_bytes());
  EXPECT_EQ(loaded.duplicates(), stats.duplicates());
  EXPECT_EQ(loaded.duplicate_bytes(), stats.duplicate_bytes());
  EXPECT_EQ(loaded.dropped(), stats.dropped());
  EXPECT_EQ(loaded.dropped_bytes(), stats.dropped_bytes());
  EXPECT_EQ(loaded.corrupted(), stats.corrupted());
  EXPECT_EQ(loaded.corrupted_bytes(), stats.corrupted_bytes());
  EXPECT_EQ(loaded.bytes_for_kind(2), stats.bytes_for_kind(2));
  EXPECT_EQ(loaded.bytes_for_kind(3), stats.bytes_for_kind(3));
  EXPECT_EQ(loaded.messages_for_kind(2), stats.messages_for_kind(2));
  EXPECT_EQ(loaded.bytes_between(0, 1), stats.bytes_between(0, 1));
  EXPECT_EQ(loaded.goodput_bytes(), stats.goodput_bytes());
}

TEST(NetworkState, RoundTripRestoresClockSequenceAndStats) {
  net::Network a;
  const NodeId n0 = a.add_node("a");
  const NodeId n1 = a.add_node("b");
  a.set_link(n0, n1, net::Link::mbps(100.0, 5.0));
  a.send(make_envelope(n0, n1, 1, 1, std::vector<std::uint8_t>(500)));
  (void)a.receive(n1);
  ASSERT_GT(a.clock().now(), 0.0);

  BufferWriter w;
  a.save_state(w);

  net::Network b;
  (void)b.add_node("a");
  (void)b.add_node("b");
  b.set_link(n0, n1, net::Link::mbps(100.0, 5.0));
  BufferReader r({w.bytes().data(), w.size()});
  b.load_state(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(b.clock().now(), a.clock().now());
  EXPECT_EQ(b.stats().total_bytes(), a.stats().total_bytes());

  // The continuation is identical: same next message, same arrival time.
  a.send(make_envelope(n1, n0, 2, 2, std::vector<std::uint8_t>(100)));
  b.send(make_envelope(n1, n0, 2, 2, std::vector<std::uint8_t>(100)));
  (void)a.receive(n0);
  (void)b.receive(n0);
  EXPECT_EQ(b.clock().now(), a.clock().now());
  EXPECT_EQ(b.stats().total_bytes(), a.stats().total_bytes());
}

TEST(NetworkState, InFlightFramesTravelWithTheCheckpoint) {
  // Under fault injection a round boundary may not be quiescent: a late
  // duplicate can still be in flight. It must survive the checkpoint and be
  // delivered by the resumed network at the same time with the same bytes.
  net::Network a;
  const NodeId n0 = a.add_node("a");
  const NodeId n1 = a.add_node("b");
  a.set_link(n0, n1, net::Link::mbps(100.0, 5.0));
  a.send(make_envelope(n0, n1, 3, 9, std::vector<std::uint8_t>{7, 8, 9}));
  EXPECT_FALSE(a.quiescent());

  BufferWriter w;
  a.save_state(w);

  net::Network b;
  (void)b.add_node("a");
  (void)b.add_node("b");
  b.set_link(n0, n1, net::Link::mbps(100.0, 5.0));
  BufferReader r({w.bytes().data(), w.size()});
  b.load_state(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(b.quiescent());
  EXPECT_EQ(b.pending(n1), 1U);

  const Envelope from_a = a.receive(n1);
  const Envelope from_b = b.receive(n1);
  EXPECT_EQ(b.clock().now(), a.clock().now());
  EXPECT_EQ(from_b.kind, from_a.kind);
  EXPECT_EQ(from_b.round, from_a.round);
  EXPECT_EQ(from_b.payload, from_a.payload);
  EXPECT_TRUE(b.quiescent());
}

TEST(NetworkState, MisroutedInFlightFrameIsRefused) {
  net::Network a;
  const NodeId n0 = a.add_node("a");
  const NodeId n1 = a.add_node("b");
  a.send(make_envelope(n0, n1, 1, 1, std::vector<std::uint8_t>(10)));
  BufferWriter w;
  a.save_state(w);
  auto bytes = w.take();
  // Rewrite the in-flight frame's dst field so it no longer matches the
  // inbox it was stored under. Fixed layout: node count (4) + clock (8) +
  // sequence (8) + busy count (4) + one busy entry (16) + two inbox counts
  // (8) + arrival (8) + frame sequence (8) + src (4) puts dst at byte 68.
  const std::size_t dst_at = 4 + 8 + 8 + 4 + 16 + 8 + 8 + 8 + 4;
  ASSERT_EQ(bytes[dst_at], 1);  // sanity: this really is the dst field
  bytes[dst_at] = 0;
  net::Network b;
  (void)b.add_node("a");
  (void)b.add_node("b");
  BufferReader r({bytes.data(), bytes.size()});
  EXPECT_THROW(b.load_state(r), SerializationError);
}

}  // namespace
}  // namespace splitmed
