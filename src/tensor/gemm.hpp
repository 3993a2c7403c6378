// Packed, register-blocked single-precision GEMM kernels on raw spans.
// ops::matmul* wrap these with shape checking; nn::Conv2d runs its packed
// weights against each sample's lowered columns (gemm_lhs, gemm_panels).
// See docs/PERFORMANCE.md for the kernel design and the bitwise-
// determinism contract (identical results for any thread count and any
// micro-kernel ISA variant, bitwise equal to the *_ref kernels below).
#pragma once

#include <cstdint>
#include <span>

#include "src/tensor/gemm_kernels.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed {

/// C[m,n] = A[m,k] * B[k,n]  (C is overwritten).
void gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c);

/// C[m,n] = A[k,m]^T * B[k,n].
void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c);

/// C[m,n] = A[m,k] * B[n,k]^T.
void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c);

/// gemm_nt with a fused write-back epilogue (gemmk::Epilogue): each C
/// element gets the elementwise tail applied AFTER its k-fold completes, at
/// write-back — bitwise identical to gemm_nt followed by the same
/// elementwise passes, for any thread count and ISA variant. When k <= 0
/// the epilogue is applied to the zero matrix (matching the unfused
/// sequence). Parameter spans must cover m (per_row) or n (per-column).
void gemm_nt_ep(std::int64_t m, std::int64_t n, std::int64_t k,
                std::span<const float> a, std::span<const float> b,
                std::span<float> c, const gemmk::Epilogue& ep);

/// A left operand packed once for a run of products that share it — a conv
/// layer's weights against each sample's columns. The micro-kernel tile is
/// chosen from n, so every product run with one pack has n columns.
struct PackedLhs {
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  const gemmk::MicroKernel* kernel = nullptr;
  const float* blocks = nullptr;  ///< ceil(m/MR) row blocks of k*MR floats
};

/// Packs A for products with n columns: A is [m,k], or [k,m] read
/// transposed when `transposed` (as gemm_tn reads it). The pack lives in
/// `scope`'s arena and stays valid while that scope and A live; nothing is
/// cached past it.
[[nodiscard]] PackedLhs pack_lhs(bool transposed, std::int64_t m,
                                 std::int64_t n, std::int64_t k,
                                 std::span<const float> a,
                                 ws::WorkspaceScope& scope);

/// C[m,n] = A * B[k,n] with A from pack_lhs — the tile loop gemm_nn and
/// gemm_tn run after packing their own A; bitwise equal to them. `ep`
/// (nullable) is a write-back epilogue, as in gemm_nt_ep. C's tiles are
/// split across threads unless the call is already inside a parallel
/// region.
void gemm_lhs(const PackedLhs& a, std::span<const float> b, std::span<float> c,
              const gemmk::Epilogue* ep = nullptr);

/// gemm_lhs with B already packed by the caller in the panel layout the
/// tile loop reads: with NR = a.kernel->panel_cols, panel jp holds columns
/// [jp*NR, jp*NR+NR) of B[k,n] as k rows of NR floats, the columns past n
/// zero (ceil(n/NR) panels). Conv2d writes its lowered columns straight
/// into this layout. Counted in the same gemm obs counters; bitwise equal
/// to gemm_lhs on the unpacked B.
void gemm_panels(const PackedLhs& a, std::span<const float> panels,
                 std::span<float> c, const gemmk::Epilogue* ep = nullptr);

/// Serial naive reference kernels: the strict k-ascending, write-first left
/// fold that the packed kernels above must reproduce BITWISE (asserted
/// across shapes and thread counts by gemm_test). Single-threaded, no
/// packing, no scratch — the semantic ground truth and the benchmark
/// baseline.
void gemm_nn_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c);
void gemm_tn_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c);
void gemm_nt_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::span<const float> a, std::span<const float> b,
                 std::span<float> c);

/// Name of the micro-kernel variant the packed kernels dispatched to for
/// this process: "base", "avx2", or "avx512f" (see
/// src/tensor/gemm_kernels.hpp).
[[nodiscard]] const char* gemm_kernel_isa();

}  // namespace splitmed
