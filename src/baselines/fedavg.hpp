// Federated Averaging (McMahan et al., AISTATS 2017) — the related-work
// baseline the paper describes as "the de facto standard" (§II): platforms
// pull the full model, train locally for several steps, push the full model
// back; the server averages weighted by shard size.
//
// Implemented with one shared model instance plus parameter snapshots —
// mathematically identical to per-platform replicas; traffic is generated
// per platform and byte-accounted exactly (2 x full parameter vector per
// platform per round).
#pragma once

#include "src/baselines/baseline.hpp"

namespace splitmed::baselines {

/// config.steps counts FedAvg ROUNDS; each round performs config.local_steps
/// local SGD steps per platform.
class FedAvgTrainer : public Baseline {
 public:
  FedAvgTrainer(core::ModelBuilder builder, const data::Dataset& train,
                data::Partition partition, const data::Dataset& test,
                BaselineConfig config);

  [[nodiscard]] nn::Sequential& model() { return replicas_.front().net; }

 private:
  double train_step(std::int64_t round) override;

  net::StarTopology topology_;
  std::vector<double> shard_weights_;  // |D_k| / N
};

}  // namespace splitmed::baselines
