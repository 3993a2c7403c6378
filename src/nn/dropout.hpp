// Inverted dropout: activations are scaled by 1/(1-p) at train time so
// inference needs no rescaling.
#pragma once

#include "src/common/rng.hpp"
#include "src/nn/layer.hpp"

namespace splitmed::nn {

class Dropout final : public Layer {
 public:
  /// p is the drop probability in [0, 1). The rng reference must outlive the
  /// layer (it is the model's generator, threaded through for determinism).
  Dropout(float p, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  /// The identity, as forward(x, false) — but leaves the training mask and
  /// mode of a pending backward alone.
  Tensor infer(const Tensor& input) override { return input; }
  [[nodiscard]] Shape output_shape(const Shape& input) const override {
    return input;
  }
  [[nodiscard]] std::string name() const override;

 private:
  float p_;
  Rng* rng_;       // non-owning
  Tensor mask_;    // scaled keep-mask of the last training forward
  bool last_training_ = false;
};

}  // namespace splitmed::nn
