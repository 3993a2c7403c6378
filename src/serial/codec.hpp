// Tagged tensor wire codec: one header word carrying (codec tag, rank),
// dims, then a codec-specific body.
//
//   header u32 = (codec tag << 24) | rank      rank <= 16, tag < 3
//   dims        rank x i64
//   body        kF32: numel x f32
//               kF16: numel x binary16 (2 bytes each, RTNE from f32)
//               kI8 : scale f32 (max|x| / 127; 0 for an all-zero tensor),
//                     then numel x int8 (symmetric, q = round(x / scale),
//                     ties away from zero)
//
// The tag rides in the always-zero high byte of the legacy rank word, so a
// kF32 frame is bitwise identical to the untagged format this repo shipped
// with — the pinned f32 golden fingerprints cannot move. encoded_tensor_bytes
// is the single source of truth for per-codec message cost: the encoders,
// the TrafficStats accounting, and ModelStats' analytic communication model
// all derive from it, so measured and analytic Fig. 4 bytes can never drift.
//
// Decoding is hostile-input safe: unknown tags, oversized ranks, negative or
// overflowing dims, and bodies larger than the remaining payload all raise
// SerializationError before any allocation. Whether a *valid* tag is the one
// a channel negotiated is the caller's policy (core::decode_tensor_payload
// raises ProtocolError on mismatch).
#pragma once

#include "src/serial/buffer.hpp"
#include "src/serial/wire_codec.hpp"
#include "src/tensor/tensor.hpp"

namespace splitmed {

/// Appends `t` to `w` under `codec`. Scratch for the f16/i8 pack runs
/// through the thread-local workspace arena — zero steady-state heap
/// allocations beyond the output buffer itself. kF16 converts with
/// round-to-nearest-even; kI8 rejects non-finite elements (they would
/// poison the scale) with SerializationError.
void encode_tensor_tagged(const Tensor& t, WireCodec codec, BufferWriter& w);

/// One decoded tensor plus the codec its frame was tagged with.
struct TaggedTensor {
  Tensor tensor;
  WireCodec codec;
};

/// Reads one tagged tensor; throws SerializationError on malformed input
/// (unknown tag, hostile header, truncated body, invalid i8 scale).
TaggedTensor decode_tensor_tagged(BufferReader& r);

/// Exact encoded size of shape `s` under `codec`:
///   kF32: 4 + 8*rank + 4*numel
///   kF16: 4 + 8*rank + 2*numel
///   kI8 : 4 + 8*rank + 4 + numel
std::uint64_t encoded_tensor_bytes(const Shape& s, WireCodec codec);

}  // namespace splitmed
