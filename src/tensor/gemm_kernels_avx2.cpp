// AVX2 micro-kernel variant. Compiled with -mavx2 -ffp-contract=off (see
// src/tensor/CMakeLists.txt): 256-bit vectors double the per-instruction
// accumulator width; -ffp-contract=off keeps mul and add separately rounded
// so results stay bitwise identical to the baseline variant.
//
// This TU must contain only the raw-pointer impl header (see
// gemm_kernels_impl.hpp) — it is compiled for an ISA the host CPU may not
// have, and is only entered through the dispatch in active_kernels().
#include "src/tensor/gemm_kernels.hpp"
#include "src/tensor/gemm_kernels_impl.hpp"

#if defined(__x86_64__) && defined(__GNUC__)

namespace splitmed::gemmk {

KernelSet avx2_kernels() { return kernel_set(kIsaName); }

}  // namespace splitmed::gemmk

#endif  // x86-64 GNU
