// AVX-512F micro-kernel variant. Compiled with -mavx512f
// -mprefer-vector-width=512 -ffp-contract=off (see
// src/tensor/CMakeLists.txt): 512-bit vectors, 4×32 (or, in the narrow
// tile, 8×16) accumulators in 8 zmm registers; -ffp-contract=off keeps
// results bitwise identical to the baseline variant (no FMA contraction;
// see gemm_kernels_impl.hpp).
//
// This TU must contain only the raw-pointer impl header — it is compiled
// for an ISA the host CPU may not have, and is only entered through the
// dispatch in active_kernels().
#include "src/tensor/gemm_kernels.hpp"
#include "src/tensor/gemm_kernels_impl.hpp"

#if defined(__x86_64__) && defined(__GNUC__)

namespace splitmed::gemmk {

KernelSet avx512_kernels() { return kernel_set(kIsaName); }

}  // namespace splitmed::gemmk

#endif  // x86-64 GNU
