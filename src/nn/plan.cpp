#include "src/nn/plan.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "src/common/error.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"

namespace splitmed::nn {
namespace {

bool planner_env_default() {
  const char* env = std::getenv("SPLITMED_PLAN");
  return env == nullptr || std::string_view(env) != "0";
}

std::atomic<int>& planner_state() {
  // -1 = unresolved (read env on first query), 0 = off, 1 = on.
  static std::atomic<int> state{-1};
  return state;
}

}  // namespace

bool planner_enabled() {
  int s = planner_state().load(std::memory_order_relaxed);
  if (s < 0) {
    s = planner_env_default() ? 1 : 0;
    planner_state().store(s, std::memory_order_relaxed);
  }
  return s != 0;
}

void set_planner_enabled(bool enabled) {
  planner_state().store(enabled ? 1 : 0, std::memory_order_relaxed);
}

gemmk::Epilogue make_conv_epilogue(const Conv2d& conv, const BatchNorm2d* bn,
                                   std::span<float> inv_std, bool relu) {
  gemmk::Epilogue ep;
  ep.bias = conv.bias_value().data().data();
  ep.per_row = true;  // conv GEMM rows are output channels
  if (bn != nullptr) {
    SPLITMED_CHECK(bn->channels() == conv.out_channels(),
                   "make_conv_epilogue: BN channels " << bn->channels()
                                                      << " != conv out "
                                                      << conv.out_channels());
    SPLITMED_CHECK(
        inv_std.size() >= static_cast<std::size_t>(bn->channels()),
        "make_conv_epilogue: inv_std scratch too small");
    auto rv = bn->running_var().data();
    const float eps = bn->eps();
    for (std::int64_t c = 0; c < bn->channels(); ++c) {
      // Exactly batchnorm.cpp's eval expression; precomputing it per
      // channel (instead of per element) changes nothing — the unfused
      // loop also hoists it per channel.
      inv_std[static_cast<std::size_t>(c)] =
          1.0F / std::sqrt(rv[static_cast<std::size_t>(c)] + eps);
    }
    ep.bn_gamma = bn->gamma_value().data().data();
    ep.bn_mean = bn->running_mean().data().data();
    ep.bn_inv_std = inv_std.data();
    ep.bn_beta = bn->beta_value().data().data();
  }
  ep.relu = relu;
  return ep;
}

gemmk::Epilogue make_linear_epilogue(const Linear& linear, bool relu) {
  gemmk::Epilogue ep;
  ep.bias = linear.bias_value().data().data();
  ep.per_row = false;  // x·Wᵀ puts output features in C columns
  ep.relu = relu;
  return ep;
}

ExecutionPlan ExecutionPlan::build(std::span<const LayerPtr> layers) {
  ExecutionPlan plan;
  const auto relu_at = [&](std::size_t j) {
    return j < layers.size() &&
           dynamic_cast<ReLU*>(layers[j].get()) != nullptr;
  };
  std::size_t i = 0;
  while (i < layers.size()) {
    FusedGroup g;
    g.begin = i;
    g.end = i + 1;  // a passthrough unless a chain is recognized below
    if (auto* conv = dynamic_cast<Conv2d*>(layers[i].get())) {
      auto* bn = (i + 1 < layers.size())
                     ? dynamic_cast<BatchNorm2d*>(layers[i + 1].get())
                     : nullptr;
      if (bn != nullptr && bn->channels() == conv->out_channels()) {
        g.conv = conv;
        g.bn = bn;
        const bool relu = relu_at(i + 2);
        g.kind = relu ? FuseKind::kConvBnRelu : FuseKind::kConvBn;
        g.end = i + (relu ? 3 : 2);
      } else if (relu_at(i + 1)) {
        g.conv = conv;
        g.kind = FuseKind::kConvRelu;
        g.end = i + 2;
      }
    } else if (auto* linear = dynamic_cast<Linear*>(layers[i].get());
               linear != nullptr && relu_at(i + 1)) {
      g.linear = linear;
      g.kind = FuseKind::kLinearRelu;
      g.end = i + 2;
    }
    i = g.end;
    plan.groups_.push_back(std::move(g));
  }
  return plan;
}

}  // namespace splitmed::nn
