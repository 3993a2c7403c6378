// Robustness / property fuzz tests: corrupted wire payloads must never
// crash (throw SerializationError or decode cleanly), random network
// traffic keeps accounting consistent, and random layer stacks keep
// shape/gradient plumbing coherent.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/data/dataloader.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/net/network.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/flatten.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/pool.hpp"
#include "src/nn/sequential.hpp"
#include "src/core/membership.hpp"
#include "src/core/protocol.hpp"
#include "src/core/server.hpp"
#include "src/core/split_model.hpp"
#include "src/models/mlp.hpp"
#include "src/optim/sgd.hpp"
#include "src/serial/codec.hpp"
#include "src/serial/crc32.hpp"
#include "src/serial/section_file.hpp"
#include "src/serial/tensor_codec.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed {
namespace {

TEST(CodecFuzz, CorruptedF32PayloadsNeverCrash) {
  Rng rng(1);
  const Tensor t = Tensor::normal(Shape{3, 5, 2}, rng);
  BufferWriter w;
  encode_tensor(t, w);
  const auto original = w.bytes();

  int threw = 0, decoded = 0;
  for (int trial = 0; trial < 500; ++trial) {
    auto bytes = original;
    // Corrupt 1-4 random bytes.
    const int mutations = 1 + static_cast<int>(rng.uniform_u64(4));
    for (int m = 0; m < mutations; ++m) {
      bytes[rng.uniform_u64(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    }
    try {
      BufferReader r({bytes.data(), bytes.size()});
      const Tensor back = decode_tensor(r);
      (void)back.numel();
      ++decoded;
    } catch (const SerializationError&) {
      ++threw;
    } catch (const InvalidArgument&) {
      ++threw;  // e.g. absurd-but-positive dims rejected by Shape
    }
  }
  EXPECT_EQ(threw + decoded, 500);
  // Header corruption must be detected at least sometimes.
  EXPECT_GT(threw, 0);
}

TEST(CodecFuzz, CorruptedI8PayloadsNeverCrash) {
  Rng rng(2);
  const Tensor t = Tensor::normal(Shape{4, 7}, rng);
  BufferWriter w;
  encode_tensor_tagged(t, WireCodec::kI8, w);
  const auto original = w.bytes();
  for (int trial = 0; trial < 500; ++trial) {
    auto bytes = original;
    bytes[rng.uniform_u64(bytes.size())] ^=
        static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    try {
      BufferReader r({bytes.data(), bytes.size()});
      (void)decode_tensor_tagged(r);
    } catch (const SerializationError&) {
    } catch (const InvalidArgument&) {
    }
  }
  SUCCEED();
}

TEST(CodecFuzz, RandomByteSoupNeverCrashes) {
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> bytes(rng.uniform_u64(64));
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    }
    try {
      BufferReader r({bytes.data(), bytes.size()});
      (void)decode_tensor(r);
    } catch (const SerializationError&) {
    } catch (const InvalidArgument&) {
    }
  }
  SUCCEED();
}

TEST(CodecFuzz, EveryTruncatedPrefixThrows) {
  // Exhaustive, not sampled: a transport that cuts the buffer at ANY byte
  // boundary must yield SerializationError, never a crash or short read.
  Rng rng(7);
  const Tensor t = Tensor::normal(Shape{3, 5, 2}, rng);
  for (const bool quantized : {false, true}) {
    BufferWriter w;
    if (quantized) {
      encode_tensor_tagged(t, WireCodec::kI8, w);
    } else {
      encode_tensor(t, w);
    }
    const auto full = w.bytes();
    for (std::size_t len = 0; len < full.size(); ++len) {
      BufferReader r({full.data(), len});
      if (quantized) {
        EXPECT_THROW((void)decode_tensor_tagged(r), SerializationError)
            << "i8 prefix of " << len << " bytes";
      } else {
        EXPECT_THROW((void)decode_tensor(r), SerializationError)
            << "f32 prefix of " << len << " bytes";
      }
    }
  }
}

TEST(CodecFuzz, LyingLengthFieldsRejectedBeforeAllocation) {
  // Headers whose rank/dims promise more data than the buffer holds (or
  // absurd element counts) must be rejected up front — the decoder must not
  // trust the length fields. Layout: u32 rank, then rank x i64 dims (LE).
  Rng rng(8);
  const Tensor t = Tensor::normal(Shape{4, 4}, rng);
  for (const bool quantized : {false, true}) {
    BufferWriter w;
    if (quantized) {
      encode_tensor_tagged(t, WireCodec::kI8, w);
    } else {
      encode_tensor(t, w);
    }
    const auto original = w.bytes();
    const auto decode = [&](const std::vector<std::uint8_t>& bytes) {
      BufferReader r({bytes.data(), bytes.size()});
      if (quantized) {
        (void)decode_tensor_tagged(r);
      } else {
        (void)decode_tensor(r);
      }
    };

    // Rank field claims 200 dims (over the rank limit).
    auto lie = original;
    lie[0] = 200;
    EXPECT_THROW(decode(lie), SerializationError);

    // First dim inflated to claim far more elements than the payload holds.
    lie = original;
    lie[4] = 0xFF;
    lie[5] = 0xFF;  // dim0 = 65535 instead of 4
    EXPECT_THROW(decode(lie), SerializationError);

    // Dims overflow the element limit (2^32) without any dim being negative.
    lie = original;
    lie[8] = 0;  // dim0 = 2^24
    lie[9] = 0;
    lie[10] = 0;
    lie[11] = 1;
    lie[12] = 0;  // dim1 = 2^24
    lie[13] = 0;
    lie[14] = 0;
    lie[15] = 0;
    lie[16] = 0;
    lie[17] = 0;
    lie[18] = 0;
    lie[19] = 1;
    EXPECT_THROW(decode(lie), SerializationError);

    // Negative dim (sign bit of the i64).
    lie = original;
    lie[11] = 0x80;
    EXPECT_THROW(decode(lie), SerializationError);
  }
}

TEST(CodecFuzz, UnknownCodecTagsAlwaysRejected) {
  // The codec tag is the high byte of the leading header word (offset 3,
  // little-endian). Every value outside the registered set {0, 1, 2} must be
  // a SerializationError — exhaustively over all 253 unknown tags.
  Rng rng(12);
  const Tensor t = Tensor::normal(Shape{3, 5, 2}, rng);
  BufferWriter w;
  encode_tensor_tagged(t, WireCodec::kF32, w);
  auto bytes = w.bytes();
  for (int tag = 3; tag <= 255; ++tag) {
    bytes[3] = static_cast<std::uint8_t>(tag);
    BufferReader r({bytes.data(), bytes.size()});
    EXPECT_THROW((void)decode_tensor_tagged(r), SerializationError)
        << "tag " << tag;
  }
}

TEST(CodecFuzz, EveryTruncatedTaggedPrefixThrows) {
  // The f32/i8 truncation sweep above goes through the typed wrappers; this
  // one covers the tagged decoder itself for all three codecs, at every
  // byte boundary.
  Rng rng(13);
  const Tensor t = Tensor::normal(Shape{3, 5, 2}, rng);
  for (const WireCodec codec :
       {WireCodec::kF32, WireCodec::kF16, WireCodec::kI8}) {
    BufferWriter w;
    encode_tensor_tagged(t, codec, w);
    const auto full = w.bytes();
    for (std::size_t len = 0; len < full.size(); ++len) {
      BufferReader r({full.data(), len});
      EXPECT_THROW((void)decode_tensor_tagged(r), SerializationError)
          << wire_codec_name(codec) << " prefix of " << len << " bytes";
    }
  }
}

TEST(CodecFuzz, EveryHeaderBitFlipThrowsThroughProtocolDecode) {
  // Exhaustive single-bit flips over the header region (tag+rank word and
  // dims) of each codec's frame, decoded the way the protocol layer does —
  // with a negotiated codec to enforce. All dims are positive, so any dim
  // flip changes numel and therefore the body size; rank flips misalign the
  // frame; tag flips either leave the registered set (SerializationError) or
  // land on a codec the channel did not negotiate (ProtocolError). No flip
  // may decode cleanly.
  Rng rng(14);
  const Tensor t = Tensor::normal(Shape{3, 5, 2}, rng);
  constexpr std::size_t kHeaderBytes = 4 + 8 * 3;  // tag+rank word, 3 dims
  for (const WireCodec codec :
       {WireCodec::kF32, WireCodec::kF16, WireCodec::kI8}) {
    auto bytes = core::encode_tensor_payload(t, codec);
    ASSERT_GT(bytes.size(), kHeaderBytes);
    for (std::size_t byte = 0; byte < kHeaderBytes; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[byte] ^= static_cast<std::uint8_t>(1U << bit);
        try {
          (void)core::decode_tensor_payload({bytes.data(), bytes.size()},
                                            codec);
          ADD_FAILURE() << wire_codec_name(codec) << " flip at byte " << byte
                        << " bit " << bit << " decoded cleanly";
        } catch (const SerializationError&) {
        } catch (const ProtocolError&) {
        } catch (const InvalidArgument&) {
          // absurd-but-positive dims rejected by Shape
        }
        bytes[byte] ^= static_cast<std::uint8_t>(1U << bit);
      }
    }
  }
}

TEST(CodecFuzz, MismatchedNegotiatedCodecIsProtocolError) {
  // A well-formed frame whose (valid) tag differs from the negotiated codec
  // is a protocol violation, not a serialization error — the frame is fine,
  // the channel agreement is broken.
  Rng rng(15);
  const Tensor t = Tensor::normal(Shape{4, 4}, rng);
  const WireCodec codecs[] = {WireCodec::kF32, WireCodec::kF16,
                              WireCodec::kI8};
  for (const WireCodec actual : codecs) {
    const auto payload = core::encode_tensor_payload(t, actual);
    for (const WireCodec expected : codecs) {
      if (expected == actual) {
        EXPECT_NO_THROW((void)core::decode_tensor_payload(
            {payload.data(), payload.size()}, expected));
      } else {
        EXPECT_THROW((void)core::decode_tensor_payload(
                         {payload.data(), payload.size()}, expected),
                     ProtocolError)
            << wire_codec_name(actual) << " frame on a "
            << wire_codec_name(expected) << " channel";
      }
    }
  }
}

TEST(CodecFuzz, PoisonedI8ScaleRejected) {
  // The i8 scale is attacker-controlled f32 right after the dims. NaN, Inf,
  // and negative scales must be rejected before any element math — a NaN
  // scale would silently dequantize every element to NaN.
  Rng rng(16);
  const Tensor t = Tensor::normal(Shape{3, 5, 2}, rng);
  BufferWriter w;
  encode_tensor_tagged(t, WireCodec::kI8, w);
  const auto original = w.bytes();
  const std::size_t scale_at = 4 + 8 * 3;  // after tag+rank word and 3 dims
  const std::uint32_t poisons[] = {
      0x7FC00000U,  // quiet NaN
      0x7F800000U,  // +Inf
      0xFF800000U,  // -Inf
      0xBF800000U,  // -1.0
      0xFFC00000U,  // -NaN
  };
  for (const std::uint32_t poison : poisons) {
    auto bytes = original;
    for (std::size_t i = 0; i < 4; ++i) {
      bytes[scale_at + i] = static_cast<std::uint8_t>(poison >> (8 * i));
    }
    BufferReader r({bytes.data(), bytes.size()});
    EXPECT_THROW((void)decode_tensor_tagged(r), SerializationError)
        << "scale bits " << poison;
  }
}

TEST(CodecFuzz, TrailingBytesAfterTensorRejectedByProtocol) {
  // decode_tensor_payload requires the payload to be EXACTLY one frame;
  // trailing garbage (e.g. a lying dim that shrank the body) must throw.
  Rng rng(17);
  const Tensor t = Tensor::normal(Shape{2, 3}, rng);
  for (const WireCodec codec :
       {WireCodec::kF32, WireCodec::kF16, WireCodec::kI8}) {
    auto payload = core::encode_tensor_payload(t, codec);
    payload.push_back(0x00);
    EXPECT_THROW(
        (void)core::decode_tensor_payload({payload.data(), payload.size()},
                                          codec),
        SerializationError)
        << wire_codec_name(codec);
  }
}

TEST(CodecFuzz, CorruptedF16PayloadsNeverCrash) {
  // Random multi-byte corruption of f16 frames: every trial either decodes
  // to some tensor or throws a typed error — never UB. (Body corruption is
  // undetectable at this layer by design; the envelope CRC owns that.)
  Rng rng(18);
  const Tensor t = Tensor::normal(Shape{4, 7}, rng);
  BufferWriter w;
  encode_tensor_tagged(t, WireCodec::kF16, w);
  const auto original = w.bytes();
  int threw = 0, decoded = 0;
  for (int trial = 0; trial < 500; ++trial) {
    auto bytes = original;
    const int mutations = 1 + static_cast<int>(rng.uniform_u64(4));
    for (int m = 0; m < mutations; ++m) {
      bytes[rng.uniform_u64(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    }
    try {
      BufferReader r({bytes.data(), bytes.size()});
      (void)decode_tensor_tagged(r);
      ++decoded;
    } catch (const SerializationError&) {
      ++threw;
    } catch (const InvalidArgument&) {
      ++threw;
    }
  }
  EXPECT_EQ(threw + decoded, 500);
  EXPECT_GT(threw, 0);
}

TEST(Crc32, KnownVectorAndIncremental) {
  const std::vector<std::uint8_t> check = {'1', '2', '3', '4', '5',
                                           '6', '7', '8', '9'};
  // The canonical CRC-32 check value for "123456789".
  EXPECT_EQ(crc32({check.data(), check.size()}), 0xCBF43926U);
  EXPECT_EQ(crc32({check.data(), 0}), 0U);
  // Incremental form composes: crc(ab) == crc(b, crc(a)).
  const std::uint32_t head = crc32({check.data(), 4});
  EXPECT_EQ(crc32({check.data() + 4, 5}, head),
            crc32({check.data(), check.size()}));
}

TEST(Crc32, DetectsEverySingleBitFlip) {
  Rng rng(9);
  std::vector<std::uint8_t> msg(64);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
  const std::uint32_t good = crc32({msg.data(), msg.size()});
  for (std::size_t byte = 0; byte < msg.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      msg[byte] ^= static_cast<std::uint8_t>(1U << bit);
      EXPECT_NE(crc32({msg.data(), msg.size()}), good)
          << "flip at byte " << byte << " bit " << bit;
      msg[byte] ^= static_cast<std::uint8_t>(1U << bit);
    }
  }
}

TEST(Crc32, DetectsRandomBursts) {
  // Error bursts up to 32 bits are guaranteed caught; wider random bursts
  // slip through only with probability ~2^-32 (none in this seeded sample).
  Rng rng(10);
  std::vector<std::uint8_t> msg(256);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
  const std::uint32_t good = crc32({msg.data(), msg.size()});
  for (int trial = 0; trial < 500; ++trial) {
    auto burst = msg;
    const std::size_t start = rng.uniform_u64(msg.size() - 4);
    const std::size_t len = 1 + rng.uniform_u64(4);
    for (std::size_t i = 0; i < len; ++i) {
      burst[start + i] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    }
    EXPECT_NE(crc32({burst.data(), burst.size()}), good);
  }
}

TEST(NetworkFuzz, RandomTrafficKeepsAccountingConsistent) {
  Rng rng(4);
  net::Network network;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(network.add_node("n" + std::to_string(i)));
  }
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    for (std::size_t b = a + 1; b < nodes.size(); ++b) {
      network.set_link(nodes[a], nodes[b],
                       net::Link::mbps(rng.uniform(10.0F, 1000.0F),
                                       rng.uniform(1.0F, 50.0F)));
    }
  }

  std::uint64_t sent_bytes = 0;
  std::vector<int> expected(nodes.size(), 0);
  constexpr int kMessages = 300;
  for (int m = 0; m < kMessages; ++m) {
    const NodeId src = nodes[rng.uniform_u64(nodes.size())];
    NodeId dst = src;
    while (dst == src) dst = nodes[rng.uniform_u64(nodes.size())];
    Envelope e = make_envelope(
        src, dst, static_cast<std::uint32_t>(rng.uniform_u64(5)), m,
        std::vector<std::uint8_t>(rng.uniform_u64(4096)));
    sent_bytes += e.wire_bytes();
    ++expected[dst];
    network.send(std::move(e));
  }
  EXPECT_EQ(network.stats().total_bytes(), sent_bytes);
  EXPECT_EQ(network.stats().total_messages(), kMessages);

  // Drain everything; clock must be monotone and all messages delivered.
  double last = network.clock().now();
  int received = 0;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    while (network.pending(nodes[n]) > 0) {
      (void)network.receive(nodes[n]);
      EXPECT_GE(network.clock().now(), last);
      last = network.clock().now();
      ++received;
      --expected[n];
    }
    EXPECT_EQ(expected[n], 0);
  }
  EXPECT_EQ(received, kMessages);
}

/// Builds a random conv stack ending in a classifier; returns input shape.
nn::Sequential random_stack(Rng& rng, Shape& input_shape,
                            std::int64_t* out_classes) {
  const std::int64_t channels = 1 + static_cast<std::int64_t>(rng.uniform_u64(3));
  std::int64_t size = 8 + 4 * static_cast<std::int64_t>(rng.uniform_u64(3));
  input_shape = Shape{2, channels, size, size};

  nn::Sequential seq;
  std::int64_t c = channels;
  const int conv_blocks = 1 + static_cast<int>(rng.uniform_u64(3));
  for (int b = 0; b < conv_blocks; ++b) {
    const std::int64_t out_c = 2 + static_cast<std::int64_t>(rng.uniform_u64(6));
    seq.emplace<nn::Conv2d>(c, out_c, 3, 1, 1, rng);
    c = out_c;
    if (rng.bernoulli(0.5F)) seq.emplace<nn::BatchNorm2d>(c);
    seq.emplace<nn::ReLU>();
    if (size >= 4 && rng.bernoulli(0.6F)) {
      seq.emplace<nn::MaxPool2d>(2);
      size /= 2;
    }
  }
  seq.emplace<nn::Flatten>();
  const std::int64_t classes = 2 + static_cast<std::int64_t>(rng.uniform_u64(8));
  seq.emplace<nn::Linear>(c * size * size, classes, rng);
  *out_classes = classes;
  return seq;
}

TEST(LayerFuzz, RandomStacksKeepShapesAndGradientsCoherent) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Shape input_shape;
    std::int64_t classes = 0;
    nn::Sequential seq = random_stack(rng, input_shape, &classes);

    // Pure shape propagation agrees with execution.
    const Shape predicted = seq.output_shape(input_shape);
    const Tensor x = Tensor::normal(input_shape, rng);
    const Tensor y = seq.forward(x, true);
    ASSERT_EQ(y.shape(), predicted) << "trial " << trial;
    ASSERT_EQ(y.shape(), Shape({2, classes}));

    // Backward returns the input shape and produces finite gradients.
    seq.zero_grad();
    const Tensor g = Tensor::normal(y.shape(), rng);
    const Tensor gin = seq.backward(g);
    ASSERT_EQ(gin.shape(), input_shape);
    for (const float v : gin.data()) ASSERT_TRUE(std::isfinite(v));
    for (nn::Parameter* p : seq.parameters()) {
      for (const float v : p->grad.data()) ASSERT_TRUE(std::isfinite(v));
    }
  }
}

/// A small but representative SMCKPT02 container: two sections, one of them
/// empty (the edge the encoder/decoder must both handle).
std::vector<std::uint8_t> sample_container() {
  SectionFileWriter w;
  BufferWriter a;
  a.write_u64(0xDEADBEEFULL);
  a.write_string("state");
  w.add("alpha", std::move(a));
  w.add("beta", std::vector<std::uint8_t>{0, 1, 2, 3, 4, 5, 6, 7});
  return w.encode();
}

TEST(CheckpointFuzz, EveryTruncatedPrefixThrows) {
  // Exhaustive: a checkpoint cut at ANY byte boundary — torn write, partial
  // download, dying disk — must throw, never crash or partially decode.
  const auto full = sample_container();
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_THROW((void)SectionFileReader::decode({full.data(), len}, "fuzz"),
                 SerializationError)
        << "prefix of " << len << " bytes";
  }
  // Sanity: the untruncated container decodes.
  EXPECT_NO_THROW(
      (void)SectionFileReader::decode({full.data(), full.size()}, "fuzz"));
}

TEST(CheckpointFuzz, EverySingleBitFlipThrows) {
  // Exhaustive over every bit of the container. The CRC trailer covers each
  // whole section record and the magic/count are structurally validated, so
  // there is no bit anywhere whose flip goes unnoticed.
  const auto full = sample_container();
  auto bytes = full;
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[byte] ^= static_cast<std::uint8_t>(1U << bit);
      EXPECT_THROW(
          (void)SectionFileReader::decode({bytes.data(), bytes.size()}, "fuzz"),
          SerializationError)
          << "flip at byte " << byte << " bit " << bit;
      bytes[byte] ^= static_cast<std::uint8_t>(1U << bit);
    }
  }
  EXPECT_EQ(bytes, full);  // all flips undone
}

TEST(CheckpointFuzz, LyingLengthsRejectedBeforeAllocation) {
  const auto full = sample_container();
  // Section payload length field of the FIRST section lives right after the
  // magic (8), section count (4), name length (4) and name "alpha" (5).
  const std::size_t payload_len_at = 8 + 4 + 4 + 5;
  auto lie = full;
  for (std::size_t i = 0; i < 8; ++i) lie[payload_len_at + i] = 0xFF;
  EXPECT_THROW((void)SectionFileReader::decode({lie.data(), lie.size()}, "f"),
               SerializationError);

  // Name length lying similarly (claims a 4 GiB name).
  lie = full;
  for (std::size_t i = 0; i < 4; ++i) lie[12 + i] = 0xFF;
  EXPECT_THROW((void)SectionFileReader::decode({lie.data(), lie.size()}, "f"),
               SerializationError);

  // Section count lying: claims 65537 sections (over the cap) and 2.
  lie = full;
  lie[8] = 0x01;
  lie[9] = 0x00;
  lie[10] = 0x01;
  lie[11] = 0x00;
  EXPECT_THROW((void)SectionFileReader::decode({lie.data(), lie.size()}, "f"),
               SerializationError);
}

TEST(CheckpointFuzz, WrongMagicAndWrongVersionAreDistinct) {
  auto not_smckpt = sample_container();
  not_smckpt[0] = 'X';
  try {
    (void)SectionFileReader::decode({not_smckpt.data(), not_smckpt.size()},
                                    "f");
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    EXPECT_EQ(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }

  // Right family, future version "SMCKPT99": the error must say "version" so
  // an operator knows to upgrade rather than suspect corruption.
  auto future = sample_container();
  future[6] = '9';
  future[7] = '9';
  try {
    (void)SectionFileReader::decode({future.data(), future.size()}, "f");
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFuzz, TrailingGarbageAndRandomSoupRejected) {
  auto padded = sample_container();
  padded.push_back(0x00);
  EXPECT_THROW(
      (void)SectionFileReader::decode({padded.data(), padded.size()}, "f"),
      SerializationError);

  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> soup(rng.uniform_u64(256));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    EXPECT_THROW((void)SectionFileReader::decode({soup.data(), soup.size()},
                                                 "soup"),
                 SerializationError);
  }
  // Soup that starts with valid magic but random innards: still rejected.
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> soup(8 + rng.uniform_u64(128));
    const char magic[] = "SMCKPT02";
    for (std::size_t i = 0; i < 8; ++i) {
      soup[i] = static_cast<std::uint8_t>(magic[i]);
    }
    for (std::size_t i = 8; i < soup.size(); ++i) {
      soup[i] = static_cast<std::uint8_t>(rng.uniform_u64(256));
    }
    EXPECT_THROW((void)SectionFileReader::decode({soup.data(), soup.size()},
                                                 "soup"),
                 SerializationError);
  }
}

TEST(DataLoaderStress, EveryIndexSeenOncePerEpoch) {
  // Over E epochs with drop_last=false, every shard index appears exactly E
  // times regardless of batch size.
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t shard_size =
        3 + static_cast<std::int64_t>(rng.uniform_u64(40));
    const std::int64_t batch =
        1 + static_cast<std::int64_t>(rng.uniform_u64(7));
    data::SyntheticCifarOptions opt;
    opt.num_examples = 64;
    opt.num_classes = 64;  // label == index: lets us track identity
    opt.image_size = 8;
    const data::SyntheticCifar ds(opt);
    std::vector<std::int64_t> shard;
    for (std::int64_t i = 0; i < shard_size; ++i) shard.push_back(i);
    data::DataLoader loader(ds, shard, batch, Rng(trial));

    constexpr int kEpochs = 3;
    std::vector<int> seen(static_cast<std::size_t>(shard_size), 0);
    const std::int64_t batches = loader.batches_per_epoch() * kEpochs;
    for (std::int64_t b = 0; b < batches; ++b) {
      for (const auto label : loader.next_batch().labels) {
        ASSERT_LT(label, shard_size);
        ++seen[static_cast<std::size_t>(label)];
      }
    }
    for (const int count : seen) EXPECT_EQ(count, kEpochs);
  }
}

// ---------------------------------------------------------------------------
// Membership control frames (kHeartbeat / kJoinRequest / kJoinAccept /
// kUpdateReject) — churn makes these the frames most likely to arrive torn,
// replayed, or forged, so they get the same exhaustive treatment as tensors.
// ---------------------------------------------------------------------------

/// One encoded instance of each membership payload, labelled for messages.
struct EncodedMembershipFrame {
  const char* name;
  std::vector<std::uint8_t> bytes;
  void (*decode)(std::span<const std::uint8_t>);
};

std::vector<EncodedMembershipFrame> sample_membership_frames() {
  std::vector<EncodedMembershipFrame> frames;
  frames.push_back({"heartbeat",
                    core::encode_heartbeat_payload({1, 9, 4}),
                    [](std::span<const std::uint8_t> p) {
                      (void)core::decode_heartbeat_payload(p);
                    }});
  frames.push_back({"join request",
                    core::encode_join_request_payload(
                        {2, core::RejoinMode::kCold, 7}),
                    [](std::span<const std::uint8_t> p) {
                      (void)core::decode_join_request_payload(p);
                    }});
  core::JoinAcceptMsg bare;
  bare.current_round = 3;
  bare.has_l1 = false;
  frames.push_back({"join accept (no genesis)",
                    core::encode_join_accept_payload(bare),
                    [](std::span<const std::uint8_t> p) {
                      (void)core::decode_join_accept_payload(p);
                    }});
  Rng rng(21);
  core::JoinAcceptMsg cold;
  cold.current_round = 3;
  cold.has_l1 = true;
  cold.l1 = Tensor::normal(Shape{5}, rng);
  frames.push_back({"join accept (genesis)",
                    core::encode_join_accept_payload(cold),
                    [](std::span<const std::uint8_t> p) {
                      (void)core::decode_join_accept_payload(p);
                    }});
  core::UpdateRejectMsg reject;
  reject.reason = core::RejectReason::kNormBomb;
  reject.strikes = 2;
  reject.state = core::MemberState::kSuspect;
  frames.push_back({"update reject",
                    core::encode_update_reject_payload(reject),
                    [](std::span<const std::uint8_t> p) {
                      (void)core::decode_update_reject_payload(p);
                    }});
  return frames;
}

TEST(MembershipFuzz, EveryTruncatedControlFramePrefixThrows) {
  // Exhaustive over every byte boundary of every membership payload: a torn
  // control frame must be SerializationError, never a crash or short read.
  for (const auto& frame : sample_membership_frames()) {
    for (std::size_t len = 0; len < frame.bytes.size(); ++len) {
      EXPECT_THROW(frame.decode({frame.bytes.data(), len}),
                   SerializationError)
          << frame.name << " prefix of " << len << " bytes";
    }
    // Sanity: the untruncated payload decodes.
    EXPECT_NO_THROW(frame.decode({frame.bytes.data(), frame.bytes.size()}))
        << frame.name;
  }
}

TEST(MembershipFuzz, TrailingBytesAfterControlFrameRejected) {
  // require_exhausted guards every membership decoder: smuggled trailing
  // bytes (frame-in-frame, lying lengths upstream) must throw.
  for (const auto& frame : sample_membership_frames()) {
    auto padded = frame.bytes;
    padded.push_back(0x00);
    EXPECT_THROW(frame.decode({padded.data(), padded.size()}),
                 SerializationError)
        << frame.name;
  }
}

TEST(MembershipFuzz, UnknownEnumBytesRejectedExhaustively) {
  // Every enum byte on the membership wire, swept over its full unknown
  // range — forward-compatibility junk from a newer peer must throw, never
  // reinterpret.
  const auto join = core::encode_join_request_payload(
      {0, core::RejoinMode::kWarm, 0});
  auto bytes = join;
  for (int mode = 2; mode <= 255; ++mode) {  // rejoin mode at offset 4
    bytes[4] = static_cast<std::uint8_t>(mode);
    EXPECT_THROW(
        (void)core::decode_join_request_payload({bytes.data(), bytes.size()}),
        SerializationError)
        << "mode byte " << mode;
  }

  core::UpdateRejectMsg msg;
  msg.reason = core::RejectReason::kNonFinite;
  msg.strikes = 1;
  msg.state = core::MemberState::kActive;
  const auto reject = core::encode_update_reject_payload(msg);
  bytes = reject;
  for (int reason = 0; reason <= 255; ++reason) {  // reason at offset 0
    if (reason == 1 || reason == 2) continue;
    bytes[0] = static_cast<std::uint8_t>(reason);
    EXPECT_THROW((void)core::decode_update_reject_payload(
                     {bytes.data(), bytes.size()}),
                 SerializationError)
        << "reason byte " << reason;
  }
  bytes = reject;
  for (int state = 6; state <= 255; ++state) {  // lifecycle state at offset 5
    bytes[5] = static_cast<std::uint8_t>(state);
    EXPECT_THROW((void)core::decode_update_reject_payload(
                     {bytes.data(), bytes.size()}),
                 SerializationError)
        << "state byte " << state;
  }

  core::JoinAcceptMsg accept;
  accept.current_round = 1;
  accept.has_l1 = false;
  const auto accept_bytes = core::encode_join_accept_payload(accept);
  bytes = accept_bytes;
  for (int flag = 2; flag <= 255; ++flag) {  // has_l1 flag at offset 8
    bytes[8] = static_cast<std::uint8_t>(flag);
    EXPECT_THROW(
        (void)core::decode_join_accept_payload({bytes.data(), bytes.size()}),
        SerializationError)
        << "has_l1 byte " << flag;
  }
}

TEST(MembershipFuzz, JoinAcceptGenesisMustBeF32Tagged) {
  // A lossy-coded genesis L1 would fork a cold-rejoined platform's weights
  // from every other replica bitwise. The decoder must refuse any codec but
  // f32 even when the frame itself is perfectly well-formed.
  Rng rng(22);
  const Tensor l1 = Tensor::normal(Shape{6}, rng);
  for (const WireCodec codec : {WireCodec::kF16, WireCodec::kI8}) {
    BufferWriter w;
    w.write_u64(5);  // current_round
    w.write_u8(1);   // has_l1
    encode_tensor_tagged(l1, codec, w);
    const auto bytes = w.bytes();
    EXPECT_THROW(
        (void)core::decode_join_accept_payload({bytes.data(), bytes.size()}),
        SerializationError)
        << wire_codec_name(codec);
  }
}

TEST(MembershipFuzz, CorruptedControlFramesNeverCrash) {
  // Random multi-byte corruption of each membership payload: every trial
  // either decodes to some message or throws SerializationError — never UB.
  Rng rng(23);
  for (const auto& frame : sample_membership_frames()) {
    int threw = 0, decoded = 0;
    for (int trial = 0; trial < 300; ++trial) {
      auto bytes = frame.bytes;
      const int mutations = 1 + static_cast<int>(rng.uniform_u64(4));
      for (int m = 0; m < mutations; ++m) {
        bytes[rng.uniform_u64(bytes.size())] ^=
            static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
      }
      try {
        frame.decode({bytes.data(), bytes.size()});
        ++decoded;
      } catch (const SerializationError&) {
        ++threw;
      } catch (const InvalidArgument&) {
        ++threw;  // genesis tensor with absurd-but-positive dims
      }
    }
    EXPECT_EQ(threw + decoded, 300) << frame.name;
  }
}

TEST(MembershipFuzz, ReplayedHeartbeatsNeverRenewTheLease) {
  // A replay attack (or WAN duplicate) re-delivers an old beat. The beat
  // counter is the replay horizon: any beat <= the last seen one is counted
  // stale and must NOT refresh the liveness lease — the platform still
  // degrades to SUSPECT on schedule.
  core::MembershipConfig cfg;
  cfg.enabled = true;
  cfg.lease_sec = 30.0;
  cfg.dead_sec = 90.0;
  core::MembershipService svc(cfg, core::ChurnPlan{}, 1, /*seed=*/7, {4});

  EXPECT_TRUE(svc.note_heartbeat(0, 5, 0.0));
  EXPECT_EQ(svc.state(0), core::MemberState::kActive);
  // Replays land well inside the lease window; none may renew it.
  for (const std::uint64_t replayed : {5ULL, 4ULL, 1ULL, 0ULL}) {
    EXPECT_FALSE(svc.note_heartbeat(0, replayed, 25.0));
  }
  EXPECT_EQ(svc.ledger().heartbeats_fresh, 1);
  EXPECT_EQ(svc.ledger().heartbeats_stale, 4);

  // 40 sim-seconds after the one FRESH beat: the lease (30 s) has expired
  // even though stale beats arrived at t=25.
  svc.begin_round(1, 40.0);
  EXPECT_EQ(svc.state(0), core::MemberState::kSuspect);
}

TEST(MembershipFuzz, RandomBeatSequencesKeepFreshStaleAccountingExact) {
  // Property: over any beat sequence, fresh + stale == delivered, and a beat
  // is fresh iff it strictly exceeds the running maximum.
  Rng rng(24);
  core::MembershipConfig cfg;
  cfg.enabled = true;
  core::MembershipService svc(cfg, core::ChurnPlan{}, 1, /*seed=*/7, {4});
  std::uint64_t horizon = 0;
  std::int64_t expect_fresh = 0, expect_stale = 0;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t beat = rng.uniform_u64(32);
    const bool fresh = beat > horizon;
    EXPECT_EQ(svc.note_heartbeat(0, beat, 0.1 * i), fresh) << "beat " << beat;
    if (fresh) {
      horizon = beat;
      ++expect_fresh;
    } else {
      ++expect_stale;
    }
  }
  EXPECT_EQ(svc.ledger().heartbeats_fresh, expect_fresh);
  EXPECT_EQ(svc.ledger().heartbeats_stale, expect_stale);
  EXPECT_EQ(expect_fresh + expect_stale, 500);
}

/// Server + membership fixture for hostile-frame tests: a real split model
/// behind a CentralServer with a 2-platform roster (and one rogue node that
/// is NOT on it).
struct HostileFixture {
  net::Network network;
  NodeId server_id, p0, p1, rogue;
  std::unique_ptr<core::MembershipService> service;
  std::unique_ptr<core::CentralServer> server;

  explicit HostileFixture(const core::MembershipConfig& cfg) {
    server_id = network.add_node("server");
    p0 = network.add_node("p0");
    p1 = network.add_node("p1");
    rogue = network.add_node("rogue");
    models::MlpConfig mcfg;
    mcfg.input_shape = Shape{3, 8, 8};
    mcfg.hidden = {8};
    mcfg.num_classes = 4;
    auto model = models::make_mlp(mcfg);
    auto parts = core::split_at(std::move(model.net), model.default_cut);
    server = std::make_unique<core::CentralServer>(
        server_id, std::move(parts.server), optim::SgdOptions{});
    service = std::make_unique<core::MembershipService>(
        cfg, core::ChurnPlan{}, 2, /*seed=*/7,
        std::vector<std::int64_t>{4, 4});
    server->set_membership(service.get(), {p0, p1});
  }

  Envelope frame(NodeId src, core::MsgKind kind,
                 std::vector<std::uint8_t> payload) {
    return make_envelope(src, server_id, static_cast<std::uint32_t>(kind),
                         /*round=*/1, std::move(payload));
  }
};

TEST(MembershipFuzz, ForgedPlatformIndexRejectedNamingBothSides) {
  // A heartbeat / join request whose payload claims a different platform
  // index than the roster maps the sender to is a forgery attempt; the
  // server must refuse it BEFORE any membership state moves, and the error
  // must name both indices for the operator.
  core::MembershipConfig cfg;
  cfg.enabled = true;
  HostileFixture fx(cfg);

  const auto forged_beat = core::encode_heartbeat_payload({1, 1, 0});
  try {
    fx.server->handle(fx.network,
                      fx.frame(fx.p0, core::MsgKind::kHeartbeat, forged_beat));
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("claims platform index 1"), std::string::npos) << what;
    EXPECT_NE(what.find("maps it to 0"), std::string::npos) << what;
  }
  const auto forged_join = core::encode_join_request_payload(
      {7, core::RejoinMode::kWarm, 0});
  EXPECT_THROW(fx.server->handle(fx.network,
                                 fx.frame(fx.p1, core::MsgKind::kJoinRequest,
                                          forged_join)),
               ProtocolError);
  // Nothing moved: both platforms still in their boot state, zero contact.
  EXPECT_EQ(fx.service->state(0), core::MemberState::kJoining);
  EXPECT_EQ(fx.service->state(1), core::MemberState::kJoining);
  EXPECT_EQ(fx.service->ledger().heartbeats_fresh, 0);
  EXPECT_EQ(fx.service->ledger().heartbeats_stale, 0);
  EXPECT_EQ(fx.service->ledger().rejoins_warm, 0);
}

TEST(MembershipFuzz, OffRosterNodeCannotSpeakMembership) {
  core::MembershipConfig cfg;
  cfg.enabled = true;
  HostileFixture fx(cfg);
  const auto beat = core::encode_heartbeat_payload({0, 1, 0});
  try {
    fx.server->handle(fx.network,
                      fx.frame(fx.rogue, core::MsgKind::kHeartbeat, beat));
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("not on the roster"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fx.service->ledger().heartbeats_fresh, 0);
}

TEST(MembershipFuzz, MembershipFramesWithoutMembershipAreProtocolErrors) {
  // A server that never enabled membership must refuse control frames
  // loudly — silently dropping them would mask a misconfigured fleet.
  net::Network network;
  const NodeId server_id = network.add_node("server");
  const NodeId sender = network.add_node("sender");
  models::MlpConfig mcfg;
  mcfg.input_shape = Shape{3, 8, 8};
  mcfg.hidden = {8};
  mcfg.num_classes = 4;
  auto model = models::make_mlp(mcfg);
  auto parts = core::split_at(std::move(model.net), model.default_cut);
  core::CentralServer server(server_id, std::move(parts.server),
                             optim::SgdOptions{});
  const auto beat = core::encode_heartbeat_payload({0, 1, 0});
  EXPECT_THROW(
      server.handle(network,
                    make_envelope(sender, server_id,
                                  static_cast<std::uint32_t>(
                                      core::MsgKind::kHeartbeat),
                                  1, beat)),
      ProtocolError);
  const auto join = core::encode_join_request_payload(
      {0, core::RejoinMode::kWarm, 0});
  EXPECT_THROW(
      server.handle(network,
                    make_envelope(sender, server_id,
                                  static_cast<std::uint32_t>(
                                      core::MsgKind::kJoinRequest),
                                  1, join)),
      ProtocolError);
}

TEST(MembershipFuzz, HostileRejoinCannotBypassQuarantine) {
  // The quarantine-evasion play: get struck out, then immediately send a
  // join request hoping admission resets the slate. The server must refuse
  // at the protocol layer with the quarantine intact.
  core::MembershipConfig cfg;
  cfg.enabled = true;
  cfg.strikes_to_quarantine = 1;
  HostileFixture fx(cfg);

  const Tensor poisoned =
      Tensor::full(Shape{4}, std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(fx.service->admit_update(0, 0, poisoned),
            core::MembershipService::Verdict::kRejectNonFinite);
  ASSERT_EQ(fx.service->state(0), core::MemberState::kQuarantined);

  for (const core::RejoinMode mode :
       {core::RejoinMode::kWarm, core::RejoinMode::kCold}) {
    const auto join = core::encode_join_request_payload({0, mode, 0});
    EXPECT_THROW(fx.server->handle(fx.network,
                                   fx.frame(fx.p0, core::MsgKind::kJoinRequest,
                                            join)),
                 ProtocolError);
  }
  EXPECT_EQ(fx.service->state(0), core::MemberState::kQuarantined);
  EXPECT_EQ(fx.service->ledger().rejoins_warm, 0);
  EXPECT_EQ(fx.service->ledger().rejoins_cold, 0);
}

/// A membership state blob with some lived-in history: contact, strikes, a
/// quarantine, accepted-norm history on both kinds.
std::vector<std::uint8_t> sample_membership_state() {
  core::MembershipConfig cfg;
  cfg.enabled = true;
  cfg.strikes_to_quarantine = 1;
  core::MembershipService svc(cfg, core::ChurnPlan{}, 2, /*seed=*/7, {4, 4});
  svc.begin_round(1, 0.0);
  (void)svc.note_heartbeat(0, 1, 0.0);
  (void)svc.note_heartbeat(1, 1, 0.0);
  (void)svc.admit_update(0, 0, Tensor::full(Shape{8}, 1.0F));
  (void)svc.admit_update(0, 1, Tensor::full(Shape{8}, 0.5F));
  (void)svc.admit_update(
      1, 0, Tensor::full(Shape{8}, std::numeric_limits<float>::infinity()));
  BufferWriter w;
  svc.save_state(w);
  return w.bytes();
}

core::MembershipService sink_service() {
  core::MembershipConfig cfg;
  cfg.enabled = true;
  cfg.strikes_to_quarantine = 1;
  return core::MembershipService(cfg, core::ChurnPlan{}, 2, /*seed=*/7,
                                 {4, 4});
}

TEST(MembershipFuzz, EveryTruncatedStatePrefixThrows) {
  const auto full = sample_membership_state();
  auto sink = sink_service();
  for (std::size_t len = 0; len < full.size(); ++len) {
    BufferReader r({full.data(), len});
    EXPECT_THROW(sink.load_state(r), SerializationError)
        << "prefix of " << len << " bytes";
  }
  BufferReader ok({full.data(), full.size()});
  EXPECT_NO_THROW(sink.load_state(ok));
}

TEST(MembershipFuzz, MalformedStateBytesRejectedExhaustively) {
  // Record layout (offsets within the blob): u32 count, then the first
  // record at offset 4 — state u8, 3 x f64, rejoin_mode u8 (+25),
  // pending u8 (+26), strikes i64 (+27), 2 x i64, probation u8 (+51), ...
  const auto full = sample_membership_state();

  auto corrupt = full;
  for (int state = 6; state <= 255; ++state) {
    corrupt[4] = static_cast<std::uint8_t>(state);
    auto sink = sink_service();
    BufferReader r({corrupt.data(), corrupt.size()});
    EXPECT_THROW(sink.load_state(r), SerializationError)
        << "state byte " << state;
  }
  corrupt = full;
  for (int mode = 2; mode <= 255; ++mode) {
    corrupt[4 + 25] = static_cast<std::uint8_t>(mode);
    auto sink = sink_service();
    BufferReader r({corrupt.data(), corrupt.size()});
    EXPECT_THROW(sink.load_state(r), SerializationError)
        << "mode byte " << mode;
  }
  for (const std::size_t flag_at : {std::size_t{4 + 26}, std::size_t{4 + 51}}) {
    corrupt = full;
    corrupt[flag_at] = 2;
    auto sink = sink_service();
    BufferReader r({corrupt.data(), corrupt.size()});
    EXPECT_THROW(sink.load_state(r), SerializationError)
        << "flag at offset " << flag_at;
  }
  // Negative strike counter (sign bit of the i64 at record offset 27).
  corrupt = full;
  corrupt[4 + 27 + 7] |= 0x80;
  {
    auto sink = sink_service();
    BufferReader r({corrupt.data(), corrupt.size()});
    EXPECT_THROW(sink.load_state(r), SerializationError) << "negative strikes";
  }
  // Roster-count lie: claims 3 platforms into a 2-platform session.
  corrupt = full;
  corrupt[0] = 3;
  {
    auto sink = sink_service();
    BufferReader r({corrupt.data(), corrupt.size()});
    try {
      sink.load_state(r);
      FAIL() << "expected SerializationError";
    } catch (const SerializationError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find('3'), std::string::npos) << what;
      EXPECT_NE(what.find('2'), std::string::npos) << what;
    }
  }
}

TEST(MembershipFuzz, CorruptedAndSoupStateNeverCrashes) {
  // Random corruption of a valid blob, and pure byte soup: load_state must
  // either decode cleanly (floats are raw — many flips are representable) or
  // throw SerializationError. Never UB, never a crash.
  Rng rng(25);
  const auto full = sample_membership_state();
  auto sink = sink_service();
  int threw = 0, loaded = 0;
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = full;
    const int mutations = 1 + static_cast<int>(rng.uniform_u64(4));
    for (int m = 0; m < mutations; ++m) {
      bytes[rng.uniform_u64(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    }
    try {
      BufferReader r({bytes.data(), bytes.size()});
      sink.load_state(r);
      ++loaded;
    } catch (const SerializationError&) {
      ++threw;
    }
  }
  EXPECT_EQ(threw + loaded, 300);
  EXPECT_GT(threw, 0);

  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> soup(rng.uniform_u64(128));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    try {
      BufferReader r({soup.data(), soup.size()});
      sink.load_state(r);
    } catch (const SerializationError&) {
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace splitmed
