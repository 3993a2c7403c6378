// Adam (Kingma & Ba) with bias correction and optional L2 weight decay.
#pragma once

#include "src/optim/optimizer.hpp"
#include "src/tensor/tensor.hpp"

namespace splitmed::optim {

struct AdamOptions {
  float learning_rate = 1e-3F;
  float beta1 = 0.9F;
  float beta2 = 0.999F;
  float eps = 1e-8F;
  float weight_decay = 0.0F;
};

class Adam final : public Optimizer {
 public:
  Adam(std::vector<nn::Parameter*> params, AdamOptions options);

  void step() override;
  void reset_state() override;

  void save_state(BufferWriter& writer) const override;
  void load_state(BufferReader& reader) override;

 private:
  AdamOptions options_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  std::int64_t t_ = 0;
};

}  // namespace splitmed::optim
