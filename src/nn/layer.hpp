// The Layer abstraction.
//
// Layers use explicit forward/backward (Caffe-style) rather than a tape
// autograd: the split-learning protocol cuts the network at an arbitrary
// layer boundary and ships activations/gradients across a (simulated) WAN, so
// "gradient w.r.t. my input given gradient w.r.t. my output" must be a
// first-class operation.
//
// Contract:
//  - forward(x, training) caches whatever backward needs. One forward is
//    matched by at most one backward before the next forward.
//  - backward(grad_out) ACCUMULATES into each Parameter::grad (callers run
//    zero_grad() between steps) and returns grad w.r.t. the forward input.
//  - infer(x) equals forward(x, false) bitwise and touches no cache. A leaf
//    layer's eval forward records its backward cache and runs infer's body,
//    so the equality holds by construction.
//  - output_shape(in) is pure: it computes shapes without running data
//    through the layer (used by the analytic communication model).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/nn/parameter.hpp"
#include "src/serial/buffer.hpp"
#include "src/tensor/tensor.hpp"

namespace splitmed::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Runs the layer. `training` toggles train-time behaviour (dropout masks,
  /// batchnorm batch statistics).
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Backpropagates: accumulates parameter gradients, returns dL/dinput.
  /// Precondition: forward() was called and its cache is still valid.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() for a caller that discards dL/dinput: accumulates bitwise
  /// the same parameter gradients, and may skip the input gradient's work
  /// (Conv2d and Linear skip their input-gradient GEMM).
  virtual void backward_params(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Inference-only forward: the body forward(input, /*training=*/false)
  /// runs after recording its backward cache, so the outputs are bitwise
  /// identical, and it leaves every cache a pending backward needs
  /// untouched — evaluation may run while a step is in flight (bounded
  /// staleness). The execution planner overrides it to fuse whole chains
  /// through arena slabs, held to the same bits by plan_test and the golden
  /// pins. Callers that need backward after an eval-mode pass — the privacy
  /// reconstruction attack — must keep using forward(x, false).
  virtual Tensor infer(const Tensor& input) = 0;

  /// Output shape for a given input shape, without executing.
  [[nodiscard]] virtual Shape output_shape(const Shape& input) const = 0;

  /// Trainable parameters (may be empty). Pointers remain valid for the
  /// lifetime of the layer (C.G. R.3: non-owning raw pointers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Human-readable layer description, e.g. "Conv2d(3->64, k3 s1 p1)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Serializes state a full checkpoint must capture BEYOND parameters():
  /// BatchNorm running statistics today, anything similar tomorrow. Layers
  /// without such state write nothing; containers recurse into children.
  /// Forward/backward caches are deliberately excluded — checkpoints are
  /// taken at step boundaries, where the next forward rebuilds them.
  virtual void save_extra_state(BufferWriter& writer) const { (void)writer; }

  /// Mirror of save_extra_state. Throws SerializationError on truncated or
  /// shape-mismatched input; the layer is unchanged when it throws.
  virtual void load_extra_state(BufferReader& reader) { (void)reader; }

  /// Zeroes all parameter gradients.
  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

  /// Total number of trainable scalars.
  [[nodiscard]] std::int64_t parameter_count() {
    std::int64_t n = 0;
    for (Parameter* p : parameters()) n += p->value.numel();
    return n;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace splitmed::nn
