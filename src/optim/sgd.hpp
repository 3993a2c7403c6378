// SGD with optional momentum, Nesterov and decoupled L2 weight decay.
#pragma once

#include "src/optim/optimizer.hpp"
#include "src/tensor/tensor.hpp"

namespace splitmed::optim {

struct SgdOptions {
  float learning_rate = 0.01F;
  float momentum = 0.0F;
  float weight_decay = 0.0F;
  bool nesterov = false;
};

class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<nn::Parameter*> params, SgdOptions options);

  void step() override;
  void reset_state() override;

  void save_state(BufferWriter& writer) const override;
  void load_state(BufferReader& reader) override;

 private:
  SgdOptions options_;
  std::vector<Tensor> velocity_;  // parallel to params_, lazily sized
};

}  // namespace splitmed::optim
