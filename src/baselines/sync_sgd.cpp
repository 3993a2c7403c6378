#include "src/baselines/sync_sgd.hpp"

#include "src/core/minibatch_policy.hpp"
#include "src/nn/param_util.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed::baselines {

SyncSgdTrainer::SyncSgdTrainer(core::ModelBuilder builder,
                               const data::Dataset& train,
                               data::Partition partition,
                               const data::Dataset& test,
                               BaselineConfig config)
    : Baseline("sync-sgd", builder, 1, train, test, std::move(config)),
      optimizer_(model().parameters(), config_.sgd) {
  // Workers sample uniform minibatches (the baseline has no imbalance
  // mitigation — that is the proposed framework's contribution).
  std::vector<std::int64_t> shard_sizes;
  for (const auto& shard : partition) {
    shard_sizes.push_back(static_cast<std::int64_t>(shard.size()));
  }
  const auto batches = core::minibatch_sizes(
      core::MinibatchPolicy::kUniform, config_.total_batch, shard_sizes);
  topology_ = net::build_hospital_star(
      network_, static_cast<std::int64_t>(partition.size()));
  add_loaders(partition, batches);
}

double SyncSgdTrainer::train_step(std::int64_t step) {
  const auto params = model().parameters();
  // Each worker computes its gradient and pushes the flat vector.
  Tensor grad_sum;
  double loss = 0.0;
  for (std::size_t w = 0; w < loaders_.size(); ++w) {
    loss += train_minibatch(model(), loaders_[w], nullptr);
    const Tensor received =
        transfer(topology_.platforms[w], topology_.server,
                 BaselineMsg::kGradPush, step, nn::flatten_gradients(params));
    if (w == 0) {
      grad_sum = received;
    } else {
      ops::axpy(1.0F, received, grad_sum);
    }
  }
  // Server averages and applies the update.
  nn::load_gradients(
      params,
      ops::scale(grad_sum, 1.0F / static_cast<float>(loaders_.size())));
  optimizer_.step();
  // Every worker pulls the fresh parameter vector. Shared-instance replica:
  // loading is a logical no-op, but run it so the code path (and its cost
  // model) matches physical replicas.
  const Tensor flat_params = nn::flatten_values(params);
  for (std::size_t w = 0; w < loaders_.size(); ++w) {
    nn::load_values(params, transfer(topology_.server, topology_.platforms[w],
                                     BaselineMsg::kParamPull, step,
                                     flat_params));
  }
  return loss / static_cast<double>(loaders_.size());
}

}  // namespace splitmed::baselines
