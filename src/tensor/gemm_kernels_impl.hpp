// Micro-kernel definition shared by the per-ISA translation units.
//
// Everything here lives in an ANONYMOUS namespace on purpose: each variant
// TU that includes this header gets its own internal-linkage copy, compiled
// with that TU's vector flags. Nothing may have external or vague (inline/
// template COMDAT) linkage — a linker merging identically-named symbols
// across variant TUs would silently route every variant through one ISA's
// code, crashing CPUs that lack it. For the same reason this header may
// include nothing beyond <cstdint> and gemm_kernels.hpp (types and plain
// function declarations only — nothing with vague linkage). The tile
// template is instantiated inside the anonymous namespace, so its
// instantiations have internal linkage too.
//
// The kernel is hand-vectorized with GCC/Clang vector extensions rather
// than left to the auto-vectorizer (which produces shuffle-heavy code for
// this accumulator shape). The vector width tracks the ISA macros the TU
// was compiled with; both tiles' MR×NR accumulators fill 8 vector
// registers at every width.
//
// Determinism: each C element is one accumulator advanced by exactly one
// separately-rounded multiply and one add per k step, k ascending, seeded
// by the k=0 product (write-first). Vector lanes are independent element
// accumulators — width never changes any element's operation sequence, so
// every variant is bitwise identical (TUs compile with -ffp-contract=off,
// which keeps FMA-capable ISAs from fusing the mul and add). The splat
// helper broadcasts by copy, never via `0 + x`, which would flip the sign
// of a negative zero.
#pragma once

#include <cstdint>

#include "src/tensor/gemm_kernels.hpp"  // Epilogue (POD only; linkage-safe)

namespace splitmed::gemmk {
namespace {

// Scalar epilogue application for edge tiles and the portable fallback.
// Must stay the exact op-for-op sequence of the vector path below (and of
// the unfused layer code): each step is one separately-rounded IEEE op, so
// an element gets identical bits whether it was written by a full vector
// tile, an edge-tile spill, or any ISA variant. (pi, pj) are the element's
// global row/column in C.
inline float epilogue_apply(float x, const Epilogue& ep, std::int64_t pi,
                            std::int64_t pj) {
  const std::int64_t p = ep.per_row ? pi : pj;
  if (ep.bias != nullptr) x = x + ep.bias[p];
  if (ep.bn_gamma != nullptr) {
    x = ((ep.bn_gamma[p] * (x - ep.bn_mean[p])) * ep.bn_inv_std[p]) +
        ep.bn_beta[p];
  }
  if (ep.relu) x = x > 0.0F ? x : 0.0F;
  return x;
}

#if defined(__GNUC__) || defined(__clang__)

// vsplat uses an explicit initializer list (not a lane-assignment loop,
// which GCC lowers through the stack at 512 bits) so it compiles to one
// vbroadcastss. It must stay a pure copy — a `0 + s` style broadcast would
// flip the sign of a negative zero.
#if defined(__AVX512F__)
typedef float VecF __attribute__((vector_size(64), may_alias, aligned(4)));
constexpr const char* kIsaName = "avx512f";
inline VecF vsplat(float s) {
  return (VecF){s, s, s, s, s, s, s, s, s, s, s, s, s, s, s, s};
}
#elif defined(__AVX2__)
typedef float VecF __attribute__((vector_size(32), may_alias, aligned(4)));
constexpr const char* kIsaName = "avx2";
inline VecF vsplat(float s) { return (VecF){s, s, s, s, s, s, s, s}; }
#else
typedef float VecF __attribute__((vector_size(16), may_alias, aligned(4)));
constexpr const char* kIsaName = "base";
inline VecF vsplat(float s) { return (VecF){s, s, s, s}; }
#endif

constexpr int kW = static_cast<int>(sizeof(VecF) / sizeof(float));

inline VecF vload(const float* p) {
  return *reinterpret_cast<const VecF*>(p);
}
inline void vstore(float* p, VecF v) { *reinterpret_cast<VecF*>(p) = v; }

// One MR-row x NV-vector tile (NR = NV*kW columns). Instantiated twice per
// ISA: 4 x 2 vectors (the general tile) and 8 x 1 vector (products whose n
// fits in one vector); both fill 8 accumulator registers.
template <int MR, int NV>
void micro_kernel(std::int64_t k, const float* ap, const float* bp, float* c,
                  std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                  const Epilogue* ep, std::int64_t i0, std::int64_t j0) {
  constexpr int NR = kW * NV;
  VecF acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    const VecF ar = vsplat(ap[r]);
    for (int v = 0; v < NV; ++v) acc[r][v] = ar * vload(bp + v * kW);
  }
  for (std::int64_t kk = 1; kk < k; ++kk) {
    const float* a = ap + kk * MR;
    const float* b = bp + kk * NR;
    VecF bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = vload(b + v * kW);
    for (int r = 0; r < MR; ++r) {
      const VecF ar = vsplat(a[r]);
      for (int v = 0; v < NV; ++v) acc[r][v] += ar * bv[v];
    }
  }
  if (mr == MR && nr == NR) {
    if (ep == nullptr) {
      for (int r = 0; r < MR; ++r) {
        for (int v = 0; v < NV; ++v) vstore(c + r * ldc + v * kW, acc[r][v]);
      }
      return;
    }
    // Vectorized write-back epilogue on the full tile. Per-row parameters
    // broadcast (vsplat is a pure copy); per-column parameters load the
    // lane-aligned slice [j0 + v*kW, +kW) — in bounds on a full tile. Every
    // lane runs the identical scalar op sequence of epilogue_apply, one
    // separately-rounded IEEE op per step (the vector ?: selects lanes,
    // matching `x > 0 ? x : 0` including -0.0 and NaN-to-zero).
    const VecF vzero = vsplat(0.0F);
    for (int r = 0; r < MR; ++r) {
      for (int v = 0; v < NV; ++v) {
        VecF x = acc[r][v];
        if (ep->bias != nullptr) {
          x = x + (ep->per_row ? vsplat(ep->bias[i0 + r])
                               : vload(ep->bias + j0 + v * kW));
        }
        if (ep->bn_gamma != nullptr) {
          VecF g, mean, inv, beta;
          if (ep->per_row) {
            g = vsplat(ep->bn_gamma[i0 + r]);
            mean = vsplat(ep->bn_mean[i0 + r]);
            inv = vsplat(ep->bn_inv_std[i0 + r]);
            beta = vsplat(ep->bn_beta[i0 + r]);
          } else {
            g = vload(ep->bn_gamma + j0 + v * kW);
            mean = vload(ep->bn_mean + j0 + v * kW);
            inv = vload(ep->bn_inv_std + j0 + v * kW);
            beta = vload(ep->bn_beta + j0 + v * kW);
          }
          x = ((g * (x - mean)) * inv) + beta;
        }
        if (ep->relu) x = x > vzero ? x : vzero;
        vstore(c + r * ldc + v * kW, x);
      }
    }
  } else {
    // Edge tile: spill the full block, then copy only the live mr×nr
    // corner (the packed panels are zero-padded past mr/nr, so the spilled
    // values are well-defined; identical floats to the full-tile path).
    // The epilogue runs scalarly on the live corner — elementwise, so bits
    // match the vector path exactly.
    float tmp[MR][NR];
    for (int r = 0; r < MR; ++r) {
      for (int v = 0; v < NV; ++v) vstore(&tmp[r][v * kW], acc[r][v]);
    }
    if (ep == nullptr) {
      for (std::int64_t r = 0; r < mr; ++r) {
        for (std::int64_t j = 0; j < nr; ++j) c[r * ldc + j] = tmp[r][j];
      }
    } else {
      for (std::int64_t r = 0; r < mr; ++r) {
        for (std::int64_t j = 0; j < nr; ++j) {
          c[r * ldc + j] =
              epilogue_apply(tmp[r][j], *ep, i0 + r, j0 + j);
        }
      }
    }
  }
}

#else  // portable scalar fallback, same fold

constexpr const char* kIsaName = "scalar";
constexpr int kW = 4;  // columns per "vector" of the scalar tiles

template <int MR, int NV>
void micro_kernel(std::int64_t k, const float* ap, const float* bp, float* c,
                  std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                  const Epilogue* ep, std::int64_t i0, std::int64_t j0) {
  constexpr int NR = kW * NV;
  float acc[MR][NR];
  for (int r = 0; r < MR; ++r) {
    const float ar = ap[r];
    for (int j = 0; j < NR; ++j) acc[r][j] = ar * bp[j];
  }
  for (std::int64_t kk = 1; kk < k; ++kk) {
    const float* a = ap + kk * MR;
    const float* b = bp + kk * NR;
    for (int r = 0; r < MR; ++r) {
      const float ar = a[r];
      for (int j = 0; j < NR; ++j) acc[r][j] += ar * b[j];
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    for (std::int64_t j = 0; j < nr; ++j) {
      c[r * ldc + j] = (ep != nullptr)
                           ? epilogue_apply(acc[r][j], *ep, i0 + r, j0 + j)
                           : acc[r][j];
    }
  }
}

#endif

/// This TU's two tiles, labelled `isa`.
inline KernelSet kernel_set(const char* isa) {
  return {{&micro_kernel<4, 2>, 4, 2 * kW, isa},
          {&micro_kernel<8, 1>, 8, kW, isa}};
}

}  // namespace
}  // namespace splitmed::gemmk
