// Property tests for the tagged wire codecs (serial/codec.hpp): per-codec
// roundtrip error bounds, exact size accounting, sign/zero edge cases, the
// binary16 conversion itself (exhaustively), and the kF32-is-legacy-bitwise
// guarantee the golden curves depend on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/serial/codec.hpp"
#include "src/serial/f16.hpp"
#include "src/serial/tensor_codec.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed {
namespace {

constexpr WireCodec kAllCodecs[] = {WireCodec::kF32, WireCodec::kF16,
                                    WireCodec::kI8};

/// Encode under `codec`, decode, return the decoded tensor; asserts the tag
/// survives and the frame is consumed exactly.
Tensor roundtrip(const Tensor& t, WireCodec codec) {
  BufferWriter w;
  encode_tensor_tagged(t, codec, w);
  BufferReader r({w.bytes().data(), w.bytes().size()});
  const TaggedTensor back = decode_tensor_tagged(r);
  EXPECT_EQ(back.codec, codec);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.tensor.shape(), t.shape());
  return back.tensor;
}

TEST(F16, KnownScalarConversions) {
  EXPECT_EQ(f32_to_f16_bits(0.0F), 0x0000);
  EXPECT_EQ(f32_to_f16_bits(-0.0F), 0x8000);
  EXPECT_EQ(f32_to_f16_bits(1.0F), 0x3C00);
  EXPECT_EQ(f32_to_f16_bits(-2.0F), 0xC000);
  EXPECT_EQ(f32_to_f16_bits(0.5F), 0x3800);
  EXPECT_EQ(f32_to_f16_bits(65504.0F), 0x7BFF);  // largest finite f16
  // Values that round past 65504 overflow to Inf, as does Inf itself.
  EXPECT_EQ(f32_to_f16_bits(65520.0F), 0x7C00);
  EXPECT_EQ(f32_to_f16_bits(1.0e30F), 0x7C00);
  EXPECT_EQ(f32_to_f16_bits(-std::numeric_limits<float>::infinity()), 0xFC00);
  // Smallest f16 subnormal is 2^-24; exactly half of it ties to even (zero).
  EXPECT_EQ(f32_to_f16_bits(std::ldexp(1.0F, -24)), 0x0001);
  EXPECT_EQ(f32_to_f16_bits(std::ldexp(1.0F, -25)), 0x0000);
  EXPECT_EQ(f32_to_f16_bits(std::ldexp(1.5F, -25)), 0x0001);
  // NaN survives as a quiet NaN.
  const std::uint16_t nan_bits =
      f32_to_f16_bits(std::numeric_limits<float>::quiet_NaN());
  EXPECT_GT(static_cast<std::uint16_t>(nan_bits & 0x7FFFU), 0x7C00U);
  EXPECT_TRUE(std::isnan(f16_bits_to_f32(nan_bits)));
}

TEST(F16, EveryBitPatternRoundTripsExactly) {
  // f16 -> f32 is exact and f32 -> f16 of an exact value must return the
  // identical bits — exhaustively over all 2^16 patterns. (NaNs only need to
  // stay NaN: the quiet bit is forced and the payload truncated.)
  for (std::uint32_t h = 0; h <= 0xFFFFU; ++h) {
    const auto bits = static_cast<std::uint16_t>(h);
    const float f = f16_bits_to_f32(bits);
    if ((bits & 0x7FFFU) > 0x7C00U) {
      EXPECT_TRUE(std::isnan(f)) << "bits " << h;
      continue;
    }
    EXPECT_EQ(f32_to_f16_bits(f), bits) << "bits " << h;
  }
}

TEST(Codec, F16RoundTripErrorBound) {
  // Half precision keeps 11 significand bits, so the roundtrip error of any
  // element is at most 2^-11 * max|x| over the tensor (subnormal flushes are
  // far below that for data of any reasonable amplitude).
  Rng rng(21);
  for (const Shape& shape : {Shape{64}, Shape{3, 17}, Shape{2, 3, 4, 5}}) {
    const Tensor t = Tensor::normal(shape, rng);
    const Tensor back = roundtrip(t, WireCodec::kF16);
    float max_abs = 0.0F;
    for (const float v : t.data()) max_abs = std::max(max_abs, std::abs(v));
    const float bound = std::ldexp(max_abs, -11);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      EXPECT_LE(std::abs(back.data()[i] - t.data()[i]), bound)
          << "element " << i;
    }
  }
}

/// One int8 quantization step for data of amplitude max_abs (symmetric
/// per-tensor scale max_abs / 127).
float quantization_step(float max_abs) { return max_abs / 127.0F; }

TEST(Codec, I8RoundTripErrorBound) {
  // Symmetric int8: error of any element is at most half a quantization
  // step (plus an ulp of slack for the scale's own rounding).
  Rng rng(22);
  for (const Shape& shape : {Shape{64}, Shape{5, 13}, Shape{2, 3, 4}}) {
    const Tensor t = Tensor::normal(shape, rng);
    const Tensor back = roundtrip(t, WireCodec::kI8);
    float max_abs = 0.0F;
    for (const float v : t.data()) max_abs = std::max(max_abs, std::abs(v));
    const float step = quantization_step(max_abs);
    const float bound = 0.5F * step * (1.0F + 1e-5F);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      EXPECT_LE(std::abs(back.data()[i] - t.data()[i]), bound)
          << "element " << i;
    }
  }
}

TEST(Codec, I8RoundsHalfAwayFromZero) {
  // max|x| = 127 makes scale exactly 1, exposing the rounding rule: exact
  // halves go AWAY from zero (deterministic regardless of FP rounding mode),
  // not to-nearest-even.
  Tensor t = Tensor::zeros(Shape{4});
  t.data()[0] = 127.0F;
  t.data()[1] = 2.5F;
  t.data()[2] = -2.5F;
  t.data()[3] = 0.5F;
  const Tensor back = roundtrip(t, WireCodec::kI8);
  EXPECT_EQ(back.data()[0], 127.0F);
  EXPECT_EQ(back.data()[1], 3.0F);
  EXPECT_EQ(back.data()[2], -3.0F);
  EXPECT_EQ(back.data()[3], 1.0F);
}

TEST(Codec, AllZeroTensorsRoundTripExactly) {
  // All-zero is the i8 edge case (scale 0) and must decode to exact zeros
  // under every codec.
  for (const WireCodec codec : kAllCodecs) {
    const Tensor t = Tensor::zeros(Shape{3, 4});
    const Tensor back = roundtrip(t, codec);
    for (const float v : back.data()) EXPECT_EQ(v, 0.0F);
  }
}

TEST(Codec, F16PreservesSignedZeroAndFlushesDenormals) {
  Tensor t = Tensor::zeros(Shape{4});
  t.data()[0] = -0.0F;
  t.data()[1] = 0.0F;
  t.data()[2] = 1.0e-39F;   // f32 denormal, far below f16 range
  t.data()[3] = -1.0e-39F;
  const Tensor back = roundtrip(t, WireCodec::kF16);
  EXPECT_EQ(back.data()[0], 0.0F);
  EXPECT_TRUE(std::signbit(back.data()[0]));
  EXPECT_FALSE(std::signbit(back.data()[1]));
  // Denormal inputs flush to SIGNED zero — the 2^-11 relative bound applies
  // to normal-range data only; below f16's subnormal floor the contract is
  // flush-to-zero with the sign kept.
  EXPECT_EQ(back.data()[2], 0.0F);
  EXPECT_FALSE(std::signbit(back.data()[2]));
  EXPECT_EQ(back.data()[3], 0.0F);
  EXPECT_TRUE(std::signbit(back.data()[3]));
}

TEST(Codec, EncodedBytesMatchesBytesWrittenForAllShapes) {
  // encoded_tensor_bytes is the size authority (analytic byte model, stats
  // accounting): for every codec and shape — including rank 0 and zero
  // dims — it must equal the bytes the encoder actually writes.
  Rng rng(23);
  std::vector<Shape> shapes = {Shape{}, Shape{0}, Shape{3, 0, 5}, Shape{1},
                               Shape{7}, Shape{2, 3}, Shape{2, 3, 4, 5}};
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::int64_t> dims(1 + rng.uniform_u64(4));
    for (auto& d : dims) {
      d = static_cast<std::int64_t>(rng.uniform_u64(9));  // 0..8, zeros legal
    }
    shapes.emplace_back(std::move(dims));
  }
  for (const Shape& shape : shapes) {
    const Tensor t = Tensor::uniform(shape, rng, -1.0F, 1.0F);
    for (const WireCodec codec : kAllCodecs) {
      BufferWriter w;
      encode_tensor_tagged(t, codec, w);
      EXPECT_EQ(w.size(), encoded_tensor_bytes(shape, codec))
          << wire_codec_name(codec);
      BufferReader r({w.bytes().data(), w.bytes().size()});
      const TaggedTensor back = decode_tensor_tagged(r);
      EXPECT_EQ(back.tensor.shape(), shape) << wire_codec_name(codec);
      EXPECT_TRUE(r.exhausted()) << wire_codec_name(codec);
    }
  }
}

TEST(Codec, KF32FrameIsBitwiseTheLegacyUntaggedFormat) {
  // The compatibility keystone: a kF32 frame must be byte-identical to the
  // pre-tag wire format (u32 rank, i64 dims, f32 data) — the tag byte is the
  // header word's high byte, which the legacy format always wrote as zero.
  Rng rng(24);
  const Tensor t = Tensor::normal(Shape{3, 5}, rng);
  BufferWriter tagged;
  encode_tensor_tagged(t, WireCodec::kF32, tagged);
  BufferWriter wrapper;
  encode_tensor(t, wrapper);
  EXPECT_EQ(tagged.bytes(), wrapper.bytes());

  BufferWriter legacy;
  legacy.write_u32(2);  // rank, high byte 0
  legacy.write_i64(3);
  legacy.write_i64(5);
  legacy.write_f32_span(t.data());
  EXPECT_EQ(tagged.bytes(), legacy.bytes());
  EXPECT_EQ(tagged.bytes()[3], 0);  // the tag byte itself
}

TEST(Codec, EncodingIsDeterministic) {
  // Two encodes of the same tensor are bitwise identical for every codec —
  // the per-codec golden curves depend on it.
  Rng rng(25);
  const Tensor t = Tensor::normal(Shape{4, 9}, rng);
  for (const WireCodec codec : kAllCodecs) {
    BufferWriter a;
    BufferWriter b;
    encode_tensor_tagged(t, codec, a);
    encode_tensor_tagged(t, codec, b);
    EXPECT_EQ(a.bytes(), b.bytes()) << wire_codec_name(codec);
  }
}

TEST(Codec, F32WrapperRejectsForeignTags) {
  Rng rng(26);
  const Tensor t = Tensor::normal(Shape{2, 2}, rng);
  BufferWriter f16_frame;
  encode_tensor_tagged(t, WireCodec::kF16, f16_frame);
  BufferReader r1({f16_frame.bytes().data(), f16_frame.bytes().size()});
  EXPECT_THROW((void)decode_tensor(r1), SerializationError);
}

TEST(Codec, I8RejectsNonFiniteInput) {
  for (const float poison : {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()}) {
    Tensor t = Tensor::zeros(Shape{3});
    t.data()[1] = poison;
    BufferWriter w;
    EXPECT_THROW(encode_tensor_tagged(t, WireCodec::kI8, w),
                 SerializationError);
  }
}

TEST(Codec, SizeFunctionsAgree) {
  const Shape s{3, 5, 2};
  EXPECT_EQ(encoded_tensor_bytes(s), encoded_tensor_bytes(s, WireCodec::kF32));
  // And the documented formulas hold: 4 + 8*rank + per-codec body.
  EXPECT_EQ(encoded_tensor_bytes(s, WireCodec::kF32), 4U + 24U + 4U * 30U);
  EXPECT_EQ(encoded_tensor_bytes(s, WireCodec::kF16), 4U + 24U + 2U * 30U);
  EXPECT_EQ(encoded_tensor_bytes(s, WireCodec::kI8), 4U + 24U + 4U + 30U);
}

TEST(Codec, NamesRoundTrip) {
  EXPECT_STREQ(wire_codec_name(WireCodec::kF32), "f32");
  EXPECT_STREQ(wire_codec_name(WireCodec::kF16), "f16");
  EXPECT_STREQ(wire_codec_name(WireCodec::kI8), "i8");
  for (const WireCodec codec : kAllCodecs) {
    EXPECT_EQ(parse_wire_codec(wire_codec_name(codec)), codec);
  }
  EXPECT_THROW((void)parse_wire_codec("f64"), InvalidArgument);
  EXPECT_THROW((void)parse_wire_codec(""), InvalidArgument);
  EXPECT_THROW((void)parse_wire_codec("F32"), InvalidArgument);
}

}  // namespace
}  // namespace splitmed
