// Local-only training — what the paper says hospitals do today (§I): each
// platform trains an independent model on its own shard, "leading to
// overfitting" and imbalance-driven accuracy spread. Zero traffic; the
// interesting outputs are the per-platform accuracies and their spread.
#pragma once

#include "src/baselines/baseline.hpp"

namespace splitmed::baselines {

struct LocalOnlyReport {
  metrics::TrainReport combined;           // mean-accuracy curve
  std::vector<double> platform_accuracy;   // final per-platform accuracies
  double min_accuracy = 0.0;
  double max_accuracy = 0.0;
};

class LocalOnlyTrainer : public Baseline {
 public:
  LocalOnlyTrainer(core::ModelBuilder builder, const data::Dataset& train,
                   data::Partition partition, const data::Dataset& test,
                   BaselineConfig config);

  /// Trains each platform model for config.steps local steps.
  LocalOnlyReport run();

 private:
  double train_step(std::int64_t step) override;

  std::vector<optim::Sgd> optimizers_;
};

}  // namespace splitmed::baselines
