#include "src/baselines/fedavg.hpp"

#include "src/common/error.hpp"
#include "src/nn/param_util.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed::baselines {

FedAvgTrainer::FedAvgTrainer(core::ModelBuilder builder,
                             const data::Dataset& train,
                             data::Partition partition,
                             const data::Dataset& test, BaselineConfig config)
    : Baseline("fedavg", builder, 1, train, test, std::move(config)) {
  SPLITMED_CHECK(!partition.empty(), "partition has no platforms");
  SPLITMED_CHECK(config_.local_steps > 0, "local_steps must be positive");
  const std::int64_t k = static_cast<std::int64_t>(partition.size());
  SPLITMED_CHECK(config_.total_batch >= k, "batch below one per platform");

  topology_ = net::build_hospital_star(network_, k);
  const double total = static_cast<double>(data::partition_total(partition));
  for (const auto& shard : partition) {
    shard_weights_.push_back(static_cast<double>(shard.size()) / total);
  }
  add_loaders(partition, std::vector<std::int64_t>(partition.size(),
                                                   config_.total_batch / k));
}

double FedAvgTrainer::train_step(std::int64_t round) {
  const auto params = model().parameters();
  const Tensor global = nn::flatten_values(params);
  Tensor average(global.shape());
  double loss = 0.0;
  for (std::size_t p = 0; p < loaders_.size(); ++p) {
    // Server -> platform: global parameters.
    nn::load_values(params, transfer(topology_.server, topology_.platforms[p],
                                     BaselineMsg::kFedPull, round, global));
    // Local training: fresh optimizer per round (no stale momentum from
    // other platforms' passes through the shared instance).
    optim::Sgd local_opt(params, config_.sgd);
    for (std::int64_t s = 0; s < config_.local_steps; ++s) {
      loss += train_minibatch(model(), loaders_[p], &local_opt);
    }
    // Platform -> server: updated parameters; server accumulates the
    // shard-size-weighted average.
    const Tensor pushed =
        transfer(topology_.platforms[p], topology_.server,
                 BaselineMsg::kFedPush, round, nn::flatten_values(params));
    ops::axpy(static_cast<float>(shard_weights_[p]), pushed, average);
  }
  nn::load_values(params, average);
  return loss / static_cast<double>(loaders_.size() *
                                    static_cast<std::size_t>(
                                        config_.local_steps));
}

}  // namespace splitmed::baselines
