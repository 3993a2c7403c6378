// Cyclic parameter sharing (Jeon, Kim & Kim, ICAIIC 2019 — the paper's
// reference [3], the authors' own prior approach): the FULL model travels
// hospital -> hospital in a ring. Each platform trains it locally for a few
// steps on its own data, then forwards the weights to the next platform
// (one full-parameter transfer per hop; no central server involved in
// training). Privacy-preserving like the split framework (raw data never
// moves) but pays parameter-sized messages and learns sequentially.
#pragma once

#include "src/baselines/baseline.hpp"

namespace splitmed::baselines {

/// config.steps counts full CYCLES around the ring; each platform runs
/// config.local_steps local SGD steps per visit.
class CyclicTrainer : public Baseline {
 public:
  CyclicTrainer(core::ModelBuilder builder, const data::Dataset& train,
                data::Partition partition, const data::Dataset& test,
                BaselineConfig config);

  [[nodiscard]] nn::Sequential& model() { return replicas_.front().net; }

 private:
  double train_step(std::int64_t cycle) override;

  std::vector<NodeId> ring_;  // platform nodes in visit order
};

}  // namespace splitmed::baselines
