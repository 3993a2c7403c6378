// Baseline micro-kernel variant: project default flags (x86-64 SSE2, or
// whatever the target's baseline is). The included impl picks its vector
// width from the ISA macros in effect for THIS translation unit.
#include "src/tensor/gemm_kernels.hpp"
#include "src/tensor/gemm_kernels_impl.hpp"

namespace splitmed::gemmk {

KernelSet base_kernels() { return kernel_set("base"); }

}  // namespace splitmed::gemmk
