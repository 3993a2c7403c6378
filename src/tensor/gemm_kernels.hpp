// Register-blocked GEMM micro-kernel variants.
//
// The packed GEMM path (src/tensor/gemm.cpp) splits C into MR×NR tiles and
// computes each tile from a packed A panel (MR-column-interleaved) and a
// packed B panel (NR-row-interleaved) with one register accumulator per C
// element. The micro-kernel is the only ISA-sensitive code: each variant
// below is compiled in its own translation unit with wider vector flags
// (see src/tensor/CMakeLists.txt) and contains NOTHING but raw-pointer
// arithmetic — no headers whose inline functions could leak wider-ISA code
// into translation units that run unconditionally.
//
// Determinism: every variant computes each C element as the identical
// strict left fold over k (first product written, later products added,
// k ascending, mul and add separately rounded — the variant TUs compile
// with -ffp-contract=off so no FMA contraction can change a rounding).
// Vector width only changes how many independent accumulators advance per
// instruction, never the per-element operation sequence, so all variants
// are bitwise identical to each other and to the naive reference kernels.
#pragma once

#include <cstdint>

namespace splitmed::gemmk {

/// Write-back epilogue: an elementwise transform applied to each C element
/// AFTER its k-fold completes, at the moment the accumulator leaves the
/// registers. Because it runs per element on the finished fold value, it
/// never reorders the reduction — fused results are bitwise identical to
/// running the same elementwise passes after an unfused GEMM (each step is
/// one separately-rounded IEEE op in the same order the unfused layer code
/// uses; the variant TUs compile with -ffp-contract=off so no FMA fusion).
///
/// Per-element sequence for C[i][j], with p = per_row ? i : j:
///   1. bias      : x = x + bias[p]                       (conv/linear bias)
///   2. bn scale  : x = ((gamma[p]*(x - mean[p])) * inv_std[p]) + beta[p]
///                  (inference-mode BatchNorm; exactly batchnorm.cpp's
///                  eval expression, left-associated)
///   3. relu      : x = x > 0 ? x : 0
/// Null pointers / relu=false skip a step. POD only — this header is
/// included by every ISA variant TU, so it must carry no code with vague
/// linkage, just types.
struct Epilogue {
  const float* bias = nullptr;      ///< [m] if per_row else [n]
  const float* bn_gamma = nullptr;  ///< all four set together, or none
  const float* bn_mean = nullptr;
  const float* bn_inv_std = nullptr;
  const float* bn_beta = nullptr;
  bool relu = false;
  bool per_row = true;  ///< parameter index: C row (conv) vs column (linear)
};

/// Computes the mr×nr tile C[r][j] (r < mr, j < nr) from packed panels:
///   ap[kk*MR + r] — A panel, MR floats per k step (rows ≥ mr zero-padded)
///   bp[kk*NR + j] — B panel, NR floats per k step (cols ≥ nr zero-padded)
/// with k ≥ 1; C is written (write-first), ldc is C's row stride.
/// `ep` (nullable) is applied at write-back; (i0, j0) is the tile's origin
/// in C, used only to index the epilogue's per-row/per-column parameters.
using MicroKernelFn = void (*)(std::int64_t k, const float* ap,
                               const float* bp, float* c, std::int64_t ldc,
                               std::int64_t mr, std::int64_t nr,
                               const Epilogue* ep, std::int64_t i0,
                               std::int64_t j0);

/// One compiled tile plus the panel geometry its packing must use.
struct MicroKernel {
  MicroKernelFn fn = nullptr;
  std::int64_t block_rows = 0;  ///< MR: A-panel interleave width.
  std::int64_t panel_cols = 0;  ///< NR: B-panel interleave width.
  const char* isa = "";
};

/// One ISA variant's two tiles. `wide` is MR=4 rows by two vectors; `narrow`
/// is MR=8 rows by one vector, for products whose n fits in one vector (a
/// wide tile there would multiply mostly zero padding). Lanes are
/// independent accumulators, so the tile choice never changes any C
/// element's bits.
struct KernelSet {
  MicroKernel wide;
  MicroKernel narrow;
};

/// Baseline variant, compiled with the project's default flags.
KernelSet base_kernels();

#if defined(__x86_64__) && defined(__GNUC__)
/// Wider-vector variants; call only when the CPU supports the ISA.
KernelSet avx2_kernels();
KernelSet avx512_kernels();
#endif

/// The variant gemm_nn/tn/nt dispatch to: the widest ISA this CPU supports,
/// overridable with SPLITMED_GEMM_ISA=base|avx2|avx512 (unsupported or
/// unknown values fall back to the best supported variant). Resolved once
/// per process.
const KernelSet& active_kernels();

/// The active variant's tile for a product with n columns: narrow when n
/// fits in one vector, wide otherwise. The shape is the only selector.
const MicroKernel& kernel_for(std::int64_t n);

}  // namespace splitmed::gemmk
