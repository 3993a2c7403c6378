// Static execution planner over layer chains.
//
// Two cooperating passes, both bitwise inert (docs/PROTOCOL.md):
//
//  Pass 1 — epilogue fusion. Recognizes conv→bn→relu / conv→relu /
//  linear→relu chains in a Sequential and folds the elementwise tail into
//  the producing GEMM's write-back (gemmk::Epilogue), so the intermediate
//  tensors are never materialized. Legality is proved per edge:
//    - bias-add and ReLU are elementwise on the finished per-element
//      k-fold, so fusing them never reorders the reduction — legal in
//      training AND inference forward. Backward masks dReLU on the fused
//      OUTPUT (x > 0 on the output is exactly x > 0 on the pre-activation,
//      including -0.0 and NaN→0), then feeds the producing layer's
//      backward — the identical float sequence to ReLU::backward followed
//      by the layer backward.
//    - inference-mode BatchNorm is a frozen per-channel affine map — legal
//      as an epilogue, but ONLY on the infer() path. Training-mode BN needs
//      batch statistics of the conv output, so the plan REFUSES to fuse it
//      in forward(): kConvBn/kConvBnRelu groups run per-layer (unfused)
//      under training, and fuse only under Sequential::infer().
//
//  Pass 2 — two-slab ping-pong. Under Sequential::infer(), runs of fused
//  groups chain through two workspace-arena slabs instead of Tensors: group
//  i writes slab i % 2 while it reads the other, so steady-state peak
//  memory stops scaling with depth. Measured via
//  ws::global_step_peak_bytes() / `splitmed_workspace_step_peak_bytes`.
//
// The plan is the only way a Sequential runs: forward, backward and infer
// each walk its groups. The planner is ON by default; SPLITMED_PLAN=0 or
// set_planner_enabled(false) runs every group unfused, its layers one by
// one. Fused and unfused execution are BITWISE IDENTICAL (asserted by
// plan_test and the pinned golden curves).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/nn/layer.hpp"
#include "src/tensor/gemm_kernels.hpp"

namespace splitmed::nn {

class Conv2d;
class Linear;
class BatchNorm2d;

/// Whether plan-driven execution is active. Defaults to the SPLITMED_PLAN
/// environment variable (unset or anything but "0" → on), read once;
/// set_planner_enabled overrides it at runtime (tests and the fusion smoke
/// toggle it around runs).
[[nodiscard]] bool planner_enabled();
void set_planner_enabled(bool enabled);

/// What a recognized group of consecutive layers fuses into.
enum class FuseKind : std::uint8_t {
  kPassthrough,  ///< single layer, no fusion
  kConvRelu,     ///< Conv2d + ReLU  (fusible in training and inference)
  kConvBn,       ///< Conv2d + BatchNorm2d  (fusible in inference only)
  kConvBnRelu,   ///< Conv2d + BatchNorm2d + ReLU  (inference only)
  kLinearRelu,   ///< Linear + ReLU  (fusible in training and inference)
};

/// One plan node: layers [begin, end) of the Sequential, plus typed views
/// of the members the fused paths need. `ran_fused`/`fused_out` are
/// per-forward state written by Sequential::forward so backward walks the
/// groups exactly as forward ran them.
struct FusedGroup {
  FuseKind kind = FuseKind::kPassthrough;
  std::size_t begin = 0;
  std::size_t end = 0;
  Conv2d* conv = nullptr;
  Linear* linear = nullptr;
  BatchNorm2d* bn = nullptr;
  // Per-forward state (training path only):
  bool ran_fused = false;
  Tensor fused_out;  ///< group output, cached for the dReLU backward mask
};

/// Assembles the write-back epilogue for a conv-rooted group: conv bias
/// (per C row = output channel), optional inference-mode BN (caller
/// provides `inv_std` scratch of bn->channels() floats, filled here with
/// 1/sqrt(running_var + eps) — the exact expression batchnorm.cpp uses),
/// optional trailing ReLU. Pointers alias the layers' parameter tensors;
/// the epilogue is valid while the layers and scratch live.
[[nodiscard]] gemmk::Epilogue make_conv_epilogue(const Conv2d& conv,
                                                 const BatchNorm2d* bn,
                                                 std::span<float> inv_std,
                                                 bool relu);

/// Linear-rooted variant: bias per C column (output feature), optional
/// trailing ReLU.
[[nodiscard]] gemmk::Epilogue make_linear_epilogue(const Linear& linear,
                                                   bool relu);

/// The static plan for one Sequential: its layer list partitioned into
/// FusedGroups. Rebuilt whenever the layer list changes (Sequential tracks
/// a structure version).
class ExecutionPlan {
 public:
  ExecutionPlan() = default;

  /// Chain recognition over the layer list. Greedy, left to right:
  /// Conv2d [+ BatchNorm2d(channels match)] [+ ReLU] and Linear + ReLU
  /// become fused groups; everything else is its own passthrough group.
  [[nodiscard]] static ExecutionPlan build(std::span<const LayerPtr> layers);

  [[nodiscard]] const std::vector<FusedGroup>& groups() const {
    return groups_;
  }
  [[nodiscard]] std::vector<FusedGroup>& groups() { return groups_; }

 private:
  std::vector<FusedGroup> groups_;
};

}  // namespace splitmed::nn
