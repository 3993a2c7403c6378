// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the integrity
// trailer on Envelope wire framing when WAN fault injection is enabled, and
// on every SMCKPT02 checkpoint section. Detects every single-bit flip and
// every error burst up to 32 bits, so a corrupted frame is discarded at the
// receiver instead of being decoded into garbage tensors and silently
// trained on.
//
// Computed by slicing-by-16: sixteen 256-entry tables (16 KiB), built at
// compile time, fold one 16-byte block per step with sixteen independent
// lookups, and the classic byte-at-a-time table finishes the tail. The
// value is the same function as the byte loop, bit for bit.
#pragma once

#include <cstdint>
#include <span>

namespace splitmed {

/// CRC-32 of `bytes`, starting from (and returning) the conventional
/// pre/post-inverted form: crc32({}) == 0.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Incremental form: continue a running checksum (`seed` is a previous
/// crc32() result). crc32(ab) == crc32(b, crc32(a)).
std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t seed);

}  // namespace splitmed
