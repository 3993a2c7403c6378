// Adam (Kingma & Ba) with bias correction and optional L2 weight decay. Like
// Sgd, it owns no parameters and updates the ones it is given.
#pragma once

#include <cstdint>
#include <vector>

#include "src/nn/parameter.hpp"
#include "src/tensor/tensor.hpp"

namespace splitmed::optim {

struct AdamOptions {
  float learning_rate = 1e-3F;
  float beta1 = 0.9F;
  float beta2 = 0.999F;
  float eps = 1e-8F;
  float weight_decay = 0.0F;
};

class Adam {
 public:
  Adam(std::vector<nn::Parameter*> params, AdamOptions options);

  /// Applies one update from the accumulated gradients. Does NOT zero them.
  void step();

 private:
  std::vector<nn::Parameter*> params_;
  AdamOptions options_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  std::int64_t t_ = 0;
};

}  // namespace splitmed::optim
