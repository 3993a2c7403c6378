#include "src/baselines/centralized.hpp"

#include <numeric>

namespace splitmed::baselines {

CentralizedTrainer::CentralizedTrainer(core::ModelBuilder builder,
                                       const data::Dataset& train,
                                       const data::Dataset& test,
                                       BaselineConfig config)
    : Baseline("centralized", builder, 1, train, test, std::move(config)),
      optimizer_(model().parameters(), config_.sgd) {
  std::vector<std::int64_t> all(static_cast<std::size_t>(train.size()));
  std::iota(all.begin(), all.end(), 0);
  loaders_.emplace_back(train, std::move(all), config_.total_batch,
                        Rng(kLoaderSeed));
}

double CentralizedTrainer::train_step(std::int64_t /*step*/) {
  return train_minibatch(model(), loaders_.front(), &optimizer_);
}

}  // namespace splitmed::baselines
