#include "src/serial/codec.hpp"

#include <cmath>
#include <cstring>

#include "src/common/error.hpp"
#include "src/serial/f16.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed {

namespace {
// Guards against hostile/corrupt headers allocating unbounded memory.
constexpr std::uint32_t kMaxRank = 16;
constexpr std::int64_t kMaxElements = std::int64_t{1} << 32;
constexpr std::uint32_t kRankMask = 0x00FFFFFFU;

/// Round half away from zero (2.5 -> 3, -2.5 -> -3). std::nearbyint honors
/// the process FP rounding mode (round-half-to-even by default, and mutable
/// at runtime), which would make the wire bytes platform-dependent; this is
/// a fixed function of the value only.
float round_half_away(float v) {
  return std::copysign(std::floor(std::abs(v) + 0.5F), v);
}

void encode_header(const Shape& s, WireCodec codec, BufferWriter& w) {
  w.write_u32(static_cast<std::uint32_t>(s.rank()) |
              (static_cast<std::uint32_t>(codec) << 24));
  for (const auto d : s.dims()) w.write_i64(d);
}

struct Header {
  WireCodec codec;
  std::vector<std::int64_t> dims;
  std::int64_t numel;
};

Header decode_header(BufferReader& r) {
  const std::uint32_t word = r.read_u32();
  const std::uint32_t tag = word >> 24;
  const std::uint32_t rank = word & kRankMask;
  if (tag >= kWireCodecCount) {
    throw SerializationError("unknown tensor codec tag " + std::to_string(tag));
  }
  if (rank > kMaxRank) {
    throw SerializationError("tensor rank " + std::to_string(rank) +
                             " exceeds limit");
  }
  Header h;
  h.codec = static_cast<WireCodec>(tag);
  h.dims.resize(rank);
  h.numel = 1;
  for (auto& d : h.dims) {
    d = r.read_i64();
    if (d < 0) throw SerializationError("negative tensor dimension");
    // Overflow-safe: reject BEFORE multiplying (a corrupt header can carry
    // dimensions whose product overflows int64).
    if (d > kMaxElements || (d != 0 && h.numel > kMaxElements / d)) {
      throw SerializationError("tensor payload exceeds element limit");
    }
    h.numel *= d;
  }
  return h;
}

void encode_body_f16(const Tensor& t, BufferWriter& w) {
  const auto src = t.data();
  ws::WorkspaceScope scratch;
  const auto halves = scratch.u16s(static_cast<std::int64_t>(src.size()));
  f16_pack(src, halves);
  w.write_bytes({reinterpret_cast<const std::uint8_t*>(halves.data()),
                 halves.size() * 2});
}

void encode_body_i8(const Tensor& t, BufferWriter& w) {
  const auto src = t.data();
  float max_abs = 0.0F;
  for (const float v : src) {
    // A NaN/Inf element would poison max_abs and therefore scale, silently
    // producing garbage wire bytes the decoder cannot detect.
    if (!std::isfinite(v)) {
      throw SerializationError(
          "i8 codec: non-finite tensor element cannot be quantized");
    }
    max_abs = std::max(max_abs, std::abs(v));
  }
  const float scale = max_abs / 127.0F;
  w.write_f32(scale);
  const float inv = scale > 0.0F ? 1.0F / scale : 0.0F;
  ws::WorkspaceScope scratch;
  const auto q = scratch.bytes(static_cast<std::int64_t>(src.size()));
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float qv = round_half_away(src[i] * inv);
    q[i] = static_cast<std::uint8_t>(
        static_cast<std::int8_t>(std::max(-127.0F, std::min(127.0F, qv))));
  }
  w.write_bytes(q);
}

Tensor decode_body_f16(Header&& h, BufferReader& r) {
  const std::uint64_t body = static_cast<std::uint64_t>(h.numel) * 2;
  // Validate against the actual remaining bytes BEFORE allocating — a
  // corrupt header must not trigger a giant allocation.
  if (body > r.remaining()) {
    throw SerializationError("tensor header larger than remaining payload");
  }
  Tensor t{Shape(std::move(h.dims))};
  const auto raw = r.read_bytes(static_cast<std::size_t>(body));
  const auto dst = t.data();
  for (std::size_t i = 0; i < dst.size(); ++i) {
    std::uint16_t half;
    std::memcpy(&half, raw.data() + 2 * i, 2);
    dst[i] = f16_bits_to_f32(half);
  }
  return t;
}

Tensor decode_body_i8(Header&& h, BufferReader& r) {
  const float scale = r.read_f32();
  if (!(scale >= 0.0F) || !std::isfinite(scale)) {
    throw SerializationError("invalid quantization scale");
  }
  // Validate the payload size before allocating (corrupt-header safety).
  if (static_cast<std::uint64_t>(h.numel) > r.remaining()) {
    throw SerializationError("tensor header larger than remaining payload");
  }
  Tensor t{Shape(std::move(h.dims))};
  const auto raw = r.read_bytes(static_cast<std::size_t>(h.numel));
  const auto dst = t.data();
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = scale * static_cast<float>(static_cast<std::int8_t>(raw[i]));
  }
  return t;
}

Tensor decode_body_f32(Header&& h, BufferReader& r) {
  if (static_cast<std::uint64_t>(h.numel) * 4 > r.remaining()) {
    throw SerializationError("tensor header larger than remaining payload");
  }
  Tensor t{Shape(std::move(h.dims))};
  r.read_f32_span(t.data());
  return t;
}

}  // namespace

const char* wire_codec_name(WireCodec codec) {
  switch (codec) {
    case WireCodec::kF32:
      return "f32";
    case WireCodec::kF16:
      return "f16";
    case WireCodec::kI8:
      return "i8";
  }
  return "unknown";
}

WireCodec parse_wire_codec(const std::string& name) {
  if (name == "f32") return WireCodec::kF32;
  if (name == "f16") return WireCodec::kF16;
  if (name == "i8") return WireCodec::kI8;
  throw InvalidArgument("unknown wire codec '" + name +
                        "' (expected f32, f16, or i8)");
}

void encode_tensor_tagged(const Tensor& t, WireCodec codec, BufferWriter& w) {
  encode_header(t.shape(), codec, w);
  switch (codec) {
    case WireCodec::kF32:
      w.write_f32_span(t.data());
      return;
    case WireCodec::kF16:
      encode_body_f16(t, w);
      return;
    case WireCodec::kI8:
      encode_body_i8(t, w);
      return;
  }
  throw SerializationError("unknown tensor codec tag " +
                           std::to_string(static_cast<unsigned>(codec)));
}

TaggedTensor decode_tensor_tagged(BufferReader& r) {
  Header h = decode_header(r);
  const WireCodec codec = h.codec;
  switch (codec) {
    case WireCodec::kF32:
      return {decode_body_f32(std::move(h), r), codec};
    case WireCodec::kF16:
      return {decode_body_f16(std::move(h), r), codec};
    case WireCodec::kI8:
      return {decode_body_i8(std::move(h), r), codec};
  }
  throw SerializationError("unknown tensor codec tag " +
                           std::to_string(static_cast<unsigned>(codec)));
}

std::uint64_t encoded_tensor_bytes(const Shape& s, WireCodec codec) {
  const std::uint64_t header =
      4 + 8 * static_cast<std::uint64_t>(s.rank());
  const auto numel = static_cast<std::uint64_t>(s.numel());
  switch (codec) {
    case WireCodec::kF32:
      return header + 4 * numel;
    case WireCodec::kF16:
      return header + 2 * numel;
    case WireCodec::kI8:
      return header + 4 + numel;
  }
  throw SerializationError("unknown tensor codec tag " +
                           std::to_string(static_cast<unsigned>(codec)));
}

}  // namespace splitmed
