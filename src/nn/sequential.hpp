// Ordered container of layers — the unit the split-learning cut operates on.
//
// Every entry point walks the layer list's ExecutionPlan (src/nn/plan.hpp):
// forward, backward/backward_params and infer each loop once over the
// plan's groups. The planner switch only decides whether a group runs
// fused; with it off every group runs its layers one by one, bitwise
// identically.
#pragma once

#include <memory>

#include "src/nn/layer.hpp"
#include "src/nn/plan.hpp"

namespace splitmed::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& add(LayerPtr layer);

  /// Emplace-style append: seq.emplace<ReLU>(); seq.emplace<Linear>(4, 2, rng);
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  /// backward() that stops at the lowest layer with parameters and has it
  /// skip its input gradient (the platform's L1: the cut gradient goes no
  /// further than the hospital). The parameter gradients are bitwise those
  /// of backward().
  void backward_params(const Tensor& grad_output) override;
  /// Plan-driven inference: fused groups (including inference-mode BN)
  /// ping-pong between two workspace slabs; with the planner off,
  /// every group runs its layers' infer(). Outputs are bitwise identical
  /// either way, and no layer's backward cache is touched.
  Tensor infer(const Tensor& input) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  std::vector<Parameter*> parameters() override;
  [[nodiscard]] std::string name() const override;

  /// Recurses into children (prefixed with a layer-count self-check so a
  /// checkpoint from a differently built model fails loudly, not silently).
  void save_extra_state(BufferWriter& writer) const override;
  void load_extra_state(BufferReader& reader) override;

  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i);
  [[nodiscard]] const Layer& layer(std::size_t i) const;

  /// Moves layers [begin, end) out into a new Sequential, erasing them from
  /// this one. This is the primitive the split framework uses to divide a
  /// network between platform (front) and server (back).
  Sequential extract(std::size_t begin, std::size_t end);

  /// Shapes of every intermediate activation for the given input shape:
  /// result[0] = input, result[i+1] = output of layer i. Pure.
  [[nodiscard]] std::vector<Shape> activation_shapes(const Shape& input) const;

  /// Builds (or rebuilds) the execution plan now instead of lazily on the
  /// first forward. Models call this once after construction.
  void prepare_plan();

  /// The current plan (building it first if stale). Its groups'
  /// `ran_fused` records how the most recent forward() ran each group.
  /// Test/introspection hook.
  [[nodiscard]] const ExecutionPlan& plan();

 private:
  void ensure_plan();
  /// backward() (input_grad) or backward_params() (!input_grad): walks the
  /// plan's groups top-down as the last forward ran them. Without the input
  /// gradient, layers below `first_param_layer_` are skipped and that layer
  /// runs backward_params().
  Tensor backward_to(const Tensor& grad_output, bool input_grad);
  /// Chains fused groups [g0, g1) of the plan through two arena slabs,
  /// group i writing slab i % 2 (inference only — no caches survive).
  Tensor infer_fused_run(const Tensor& input, std::size_t g0, std::size_t g1);

  std::vector<LayerPtr> layers_;
  // Plan cache, invalidated by structural edits (add/extract).
  ExecutionPlan plan_;
  std::uint64_t structure_version_ = 0;
  std::uint64_t planned_version_ = ~std::uint64_t{0};
  /// Index of the lowest layer with parameters (size() when none), set with
  /// the plan: where backward_params() stops.
  std::size_t first_param_layer_ = 0;
};

}  // namespace splitmed::nn
