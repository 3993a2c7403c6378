#include "src/nn/sequential.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "src/common/error.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"
#include "src/obs/obs.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed::nn {
namespace {

/// Opens the --trace-detail=2 span of one plan group (where the compute
/// time goes), labelled e.g. "nn.Conv2d(3->16, k3 s1 p1)+ReLU". Called only
/// when traced, so an untraced step builds no label and no span.
void open_group_span(std::optional<obs::Span>& span, const FusedGroup& g,
                     const std::vector<LayerPtr>& layers, const char* dir,
                     std::size_t index) {
  std::string label = "nn.";
  for (std::size_t i = g.begin; i < g.end; ++i) {
    if (i > g.begin) label += '+';
    label += layers[i]->name();
  }
  span.emplace(obs::trace(), std::move(label), "nn");
  span->arg("dir", dir);
  span->arg("index", static_cast<std::uint64_t>(index));
}

}  // namespace

Sequential& Sequential::add(LayerPtr layer) {
  SPLITMED_CHECK(layer != nullptr, "Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  ++structure_version_;
  return *this;
}

void Sequential::ensure_plan() {
  if (planned_version_ != structure_version_) {
    plan_ = ExecutionPlan::build(layers_);
    first_param_layer_ = 0;
    while (first_param_layer_ < layers_.size() &&
           layers_[first_param_layer_]->parameters().empty()) {
      ++first_param_layer_;
    }
    planned_version_ = structure_version_;
  }
}

void Sequential::prepare_plan() { ensure_plan(); }

const ExecutionPlan& Sequential::plan() {
  ensure_plan();
  return plan_;
}

Tensor Sequential::forward(const Tensor& input, bool training) {
  ensure_plan();
  const bool fuse = planner_enabled();
  const bool traced = obs::detail_at_least(2);
  // The running activation: the input until a layer has run, so the input
  // is never copied.
  const Tensor* cur = &input;
  Tensor x;
  auto& groups = plan_.groups();
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    FusedGroup& g = groups[gi];
    std::optional<obs::Span> span;
    if (traced) open_group_span(span, g, layers_, "forward", gi);
    // conv→relu and linear→relu fuse the ReLU into the GEMM write-back in
    // BOTH modes (elementwise-after-fold, bitwise inert; the group's output
    // is cached for the dReLU backward mask). BN-rooted groups run
    // per-layer here: training-mode BN needs batch statistics of the conv
    // output, and eval-mode forward() must leave BatchNorm's backward cache
    // intact (privacy::reconstruct_inputs differentiates an eval forward)
    // — only infer() fuses BN. With the planner off every group runs its
    // layers one by one.
    switch (fuse ? g.kind : FuseKind::kPassthrough) {
      case FuseKind::kConvRelu: {
        const gemmk::Epilogue ep =
            make_conv_epilogue(*g.conv, nullptr, {}, /*relu=*/true);
        x = g.conv->forward_fused(*cur, ep, /*cache=*/true);
        g.fused_out = x;
        g.ran_fused = true;
        break;
      }
      case FuseKind::kLinearRelu: {
        const gemmk::Epilogue ep = make_linear_epilogue(*g.linear, true);
        x = g.linear->forward_fused(*cur, ep, /*cache=*/true);
        g.fused_out = x;
        g.ran_fused = true;
        break;
      }
      default: {
        g.ran_fused = false;
        for (std::size_t i = g.begin; i < g.end; ++i) {
          x = layers_[i]->forward(*cur, training);
          cur = &x;
        }
        break;
      }
    }
    cur = &x;
  }
  if (cur == &input) return input;
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  return backward_to(grad_output, /*input_grad=*/true);
}

void Sequential::backward_params(const Tensor& grad_output) {
  (void)backward_to(grad_output, /*input_grad=*/false);
}

Tensor Sequential::backward_to(const Tensor& grad_output, bool input_grad) {
  ensure_plan();
  const bool traced = obs::detail_at_least(2);
  // Without the input gradient, layers below the lowest parameterized one
  // have nothing to contribute, and that one skips its own input gradient.
  // A fused group's producer is its first layer, so it is the stop layer
  // whenever the stop falls inside that group.
  const std::size_t stop = input_grad ? 0 : first_param_layer_;
  // The running gradient, never a copy of grad_output (as in forward).
  const Tensor* cur = &grad_output;
  Tensor g;
  auto& groups = plan_.groups();
  // Groups that end at or below the stop layer have nothing left to do.
  for (std::size_t gi = groups.size(); gi-- > 0 && groups[gi].end > stop;) {
    FusedGroup& grp = groups[gi];
    std::optional<obs::Span> span;
    if (traced) open_group_span(span, grp, layers_, "backward", gi);
    if (grp.ran_fused) {
      // Mirrors forward exactly: ReLU::backward's own mask body is applied
      // to the incoming gradient on the cached fused OUTPUT (out > 0 ⟺
      // pre-activation > 0, including -0.0 and NaN→0, so the masked bytes
      // equal ReLU::backward's result), scratch-buffered in the arena, then
      // the producing layer's backward runs on those bytes.
      check_same_shape(cur->shape(), grp.fused_out.shape(),
                       "Sequential fused backward");
      ws::WorkspaceScope scope;
      std::span<float> masked = scope.floats(grp.fused_out.numel());
      relu_backward_mask(grp.fused_out.data(), cur->data(), masked);
      const bool want_dx = input_grad || grp.begin != stop;
      g = (grp.conv != nullptr)
              ? grp.conv->backward_from(masked, grp.fused_out.shape(),
                                        want_dx)
              : grp.linear->backward_from(masked, grp.fused_out.shape(),
                                          want_dx);
      cur = &g;
      continue;
    }
    for (std::size_t i = grp.end; i-- > std::max(grp.begin, stop);) {
      if (i == stop && !input_grad) {
        layers_[i]->backward_params(*cur);
      } else {
        g = layers_[i]->backward(*cur);
        cur = &g;
      }
    }
  }
  if (cur == &grad_output) return grad_output;
  return g;
}

Tensor Sequential::infer(const Tensor& input) {
  ensure_plan();
  const bool fuse = planner_enabled();
  const Tensor* cur = &input;  // as in forward: the input is never copied
  Tensor x;
  auto& groups = plan_.groups();
  std::size_t gi = 0;
  while (gi < groups.size()) {
    if (!fuse || groups[gi].kind == FuseKind::kPassthrough) {
      // Each layer's own cache-free infer().
      for (std::size_t i = groups[gi].begin; i < groups[gi].end; ++i) {
        x = layers_[i]->infer(*cur);
        cur = &x;
      }
      ++gi;
      continue;
    }
    // Maximal run of fused groups chains through arena slabs.
    std::size_t gj = gi + 1;
    while (gj < groups.size() &&
           groups[gj].kind != FuseKind::kPassthrough) {
      ++gj;
    }
    x = infer_fused_run(*cur, gi, gj);
    cur = &x;
    gi = gj;
  }
  if (cur == &input) return input;
  return x;
}

Tensor Sequential::infer_fused_run(const Tensor& input, std::size_t g0,
                                   std::size_t g1) {
  auto& groups = plan_.groups();
  const std::size_t r = g1 - g0;
  // Output shape per group in the run.
  std::vector<Shape> shapes;
  shapes.reserve(r);
  Shape s = input.shape();
  for (std::size_t i = g0; i < g1; ++i) {
    for (std::size_t li = groups[i].begin; li < groups[i].end; ++li) {
      s = layers_[li]->output_shape(s);
    }
    shapes.push_back(s);
  }
  Tensor out(shapes.back());
  ws::WorkspaceScope scope;
  // Every group output but the last (which writes the result Tensor) goes
  // to slab i % 2: group i reads the slab group i-1 wrote and overwrites the
  // one group i-2 wrote, which nothing reads any more. Two slabs, each sized
  // to the largest output it holds, serve a chain of any depth.
  std::int64_t slab_floats[2] = {0, 0};
  for (std::size_t i = 0; i + 1 < r; ++i) {
    slab_floats[i % 2] = std::max(slab_floats[i % 2], shapes[i].numel());
  }
  const std::span<float> slabs[2] = {scope.floats(slab_floats[0]),
                                     scope.floats(slab_floats[1])};
  std::span<const float> cur = input.data();
  Shape cur_shape = input.shape();
  for (std::size_t i = 0; i < r; ++i) {
    FusedGroup& g = groups[g0 + i];
    std::span<float> dst =
        (i + 1 == r)
            ? out.data()
            : slabs[i % 2].first(static_cast<std::size_t>(shapes[i].numel()));
    if (g.conv != nullptr) {
      std::span<float> inv_std =
          (g.bn != nullptr) ? scope.floats(g.bn->channels())
                            : std::span<float>{};
      const bool relu = g.kind == FuseKind::kConvRelu ||
                        g.kind == FuseKind::kConvBnRelu;
      const gemmk::Epilogue ep =
          make_conv_epilogue(*g.conv, g.bn, inv_std, relu);
      g.conv->run_fused(cur, cur_shape.dim(0), cur_shape.dim(2),
                        cur_shape.dim(3), dst, ep);
    } else {
      const gemmk::Epilogue ep = make_linear_epilogue(*g.linear, true);
      g.linear->run_fused(cur, cur_shape.dim(0), dst, ep);
    }
    cur = dst;
    cur_shape = shapes[i];
  }
  return out;
}

Shape Sequential::output_shape(const Shape& input) const {
  Shape s = input;
  for (const auto& layer : layers_) s = layer->output_shape(s);
  return s;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (const auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::string Sequential::name() const {
  std::ostringstream os;
  os << "Sequential(" << layers_.size() << " layers)";
  return os.str();
}

Layer& Sequential::layer(std::size_t i) {
  SPLITMED_CHECK(i < layers_.size(), "Sequential::layer: index " << i
                                         << " out of range");
  return *layers_[i];
}

const Layer& Sequential::layer(std::size_t i) const {
  SPLITMED_CHECK(i < layers_.size(), "Sequential::layer: index " << i
                                         << " out of range");
  return *layers_[i];
}

Sequential Sequential::extract(std::size_t begin, std::size_t end) {
  SPLITMED_CHECK(begin <= end && end <= layers_.size(),
                 "Sequential::extract [" << begin << ", " << end
                                         << ") out of range, size "
                                         << layers_.size());
  Sequential out;
  for (std::size_t i = begin; i < end; ++i) {
    out.add(std::move(layers_[i]));
  }
  layers_.erase(layers_.begin() + static_cast<std::ptrdiff_t>(begin),
                layers_.begin() + static_cast<std::ptrdiff_t>(end));
  ++structure_version_;  // stale plan would hold dangling layer pointers
  return out;
}

void Sequential::save_extra_state(BufferWriter& writer) const {
  writer.write_u32(static_cast<std::uint32_t>(layers_.size()));
  for (const auto& layer : layers_) layer->save_extra_state(writer);
}

void Sequential::load_extra_state(BufferReader& reader) {
  const std::uint32_t count = reader.read_u32();
  if (count != layers_.size()) {
    throw SerializationError("Sequential extra state: checkpoint has " +
                             std::to_string(count) + " layers, model has " +
                             std::to_string(layers_.size()));
  }
  for (auto& layer : layers_) layer->load_extra_state(reader);
}

std::vector<Shape> Sequential::activation_shapes(const Shape& input) const {
  std::vector<Shape> shapes;
  shapes.reserve(layers_.size() + 1);
  shapes.push_back(input);
  Shape s = input;
  for (const auto& layer : layers_) {
    s = layer->output_shape(s);
    shapes.push_back(s);
  }
  return shapes;
}

}  // namespace splitmed::nn
