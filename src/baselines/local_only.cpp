#include "src/baselines/local_only.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace splitmed::baselines {

LocalOnlyTrainer::LocalOnlyTrainer(core::ModelBuilder builder,
                                   const data::Dataset& train,
                                   data::Partition partition,
                                   const data::Dataset& test,
                                   BaselineConfig config)
    : Baseline("local-only", builder, partition.size(), train, test,
               std::move(config)) {
  SPLITMED_CHECK(!partition.empty(), "partition has no platforms");
  const std::int64_t k = static_cast<std::int64_t>(partition.size());
  add_loaders(partition,
              std::vector<std::int64_t>(
                  partition.size(),
                  std::max<std::int64_t>(1, config_.total_batch / k)));
  optimizers_.reserve(replicas_.size());
  for (auto& replica : replicas_) {
    optimizers_.emplace_back(replica.net.parameters(), config_.sgd);
  }
}

double LocalOnlyTrainer::train_step(std::int64_t /*step*/) {
  double loss = 0.0;
  for (std::size_t p = 0; p < replicas_.size(); ++p) {
    loss += train_minibatch(replicas_[p].net, loaders_[p], &optimizers_[p]);
  }
  return loss / static_cast<double>(replicas_.size());
}

LocalOnlyReport LocalOnlyTrainer::run() {
  LocalOnlyReport out;
  out.combined = Baseline::run();
  out.platform_accuracy = accuracies_;
  if (!out.platform_accuracy.empty()) {
    out.min_accuracy = *std::min_element(out.platform_accuracy.begin(),
                                         out.platform_accuracy.end());
    out.max_accuracy = *std::max_element(out.platform_accuracy.begin(),
                                         out.platform_accuracy.end());
  }
  return out;
}

}  // namespace splitmed::baselines
