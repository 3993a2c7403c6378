#include "src/baselines/cyclic.hpp"

#include <algorithm>
#include <string>

#include "src/common/error.hpp"
#include "src/nn/param_util.hpp"

namespace splitmed::baselines {

CyclicTrainer::CyclicTrainer(core::ModelBuilder builder,
                             const data::Dataset& train,
                             data::Partition partition,
                             const data::Dataset& test, BaselineConfig config)
    : Baseline("cyclic", builder, 1, train, test, std::move(config)) {
  SPLITMED_CHECK(partition.size() >= 2,
                 "cyclic transfer needs at least two platforms");
  SPLITMED_CHECK(config_.local_steps > 0, "local_steps must be positive");
  const std::size_t k = partition.size();

  // Ring topology: hospital i <-> hospital (i+1) % K over the hospital WAN
  // profiles.
  const auto& profiles = net::hospital_wan_profiles();
  for (std::size_t p = 0; p < k; ++p) {
    ring_.push_back(network_.add_node("hospital-" + std::to_string(p)));
  }
  for (std::size_t p = 0; p < k; ++p) {
    const auto& prof = profiles[p % profiles.size()];
    network_.set_link(ring_[p], ring_[(p + 1) % k],
                      net::Link::mbps(prof.bandwidth_mbps, prof.latency_ms));
  }
  add_loaders(partition,
              std::vector<std::int64_t>(
                  k, std::max<std::int64_t>(
                         1, config_.total_batch /
                                static_cast<std::int64_t>(k))));
}

double CyclicTrainer::train_step(std::int64_t cycle) {
  const auto params = model().parameters();
  double loss = 0.0;
  for (std::size_t p = 0; p < loaders_.size(); ++p) {
    // Local training at hospital p (fresh optimizer per visit: momentum
    // does not survive the hand-off in the cyclic scheme).
    optim::Sgd local_opt(params, config_.sgd);
    for (std::int64_t s = 0; s < config_.local_steps; ++s) {
      loss += train_minibatch(model(), loaders_[p], &local_opt);
    }
    // Hand the full model to the next hospital in the ring.
    const std::size_t next = (p + 1) % loaders_.size();
    nn::load_values(params, transfer(ring_[p], ring_[next],
                                     BaselineMsg::kCyclicTransfer, cycle,
                                     nn::flatten_values(params)));
  }
  return loss / static_cast<double>(loaders_.size() *
                                    static_cast<std::size_t>(
                                        config_.local_steps));
}

}  // namespace splitmed::baselines
