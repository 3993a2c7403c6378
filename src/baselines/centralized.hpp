// Centralized training — the privacy-violating upper bound: all data pooled
// in one place, plain minibatch SGD, zero network traffic. The accuracy
// ceiling the distributed protocols are measured against.
#pragma once

#include "src/baselines/baseline.hpp"

namespace splitmed::baselines {

class CentralizedTrainer : public Baseline {
 public:
  CentralizedTrainer(core::ModelBuilder builder, const data::Dataset& train,
                     const data::Dataset& test, BaselineConfig config);

  [[nodiscard]] nn::Sequential& model() { return replicas_.front().net; }

 private:
  double train_step(std::int64_t step) override;

  optim::Sgd optimizer_;
};

}  // namespace splitmed::baselines
