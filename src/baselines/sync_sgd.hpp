// Large-Scale Synchronous SGD (Chen et al., arXiv:1604.00981) — the paper's
// comparison baseline in Fig. 4.
//
// Every worker holds a full model replica and its local data shard. Per
// step, each worker computes a gradient on its minibatch and pushes the
// FLATTENED FULL GRADIENT to the parameter server; the server averages,
// applies SGD, and every worker pulls the FULL PARAMETER VECTOR back. Both
// transfers cross the WAN every step — the bandwidth cost the paper's
// framework avoids.
//
// Implementation note: since synchronized replicas are bit-identical after
// every pull, a single shared model instance stands in for all K replicas.
// The mathematics is unchanged; the wire traffic is generated exactly as if
// the replicas were physical (K gradient pushes + K parameter pulls per
// step, all byte-accounted).
#pragma once

#include "src/baselines/baseline.hpp"

namespace splitmed::baselines {

class SyncSgdTrainer : public Baseline {
 public:
  SyncSgdTrainer(core::ModelBuilder builder, const data::Dataset& train,
                 data::Partition partition, const data::Dataset& test,
                 BaselineConfig config);

  [[nodiscard]] nn::Sequential& model() { return replicas_.front().net; }

 private:
  double train_step(std::int64_t step) override;

  net::StarTopology topology_;
  optim::Sgd optimizer_;
};

}  // namespace splitmed::baselines
