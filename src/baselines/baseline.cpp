#include "src/baselines/baseline.hpp"

#include "src/common/error.hpp"
#include "src/common/logging.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/protocol.hpp"
#include "src/metrics/evaluate.hpp"
#include "src/nn/loss.hpp"

namespace splitmed::baselines {

namespace {

/// Test-set evaluation batch (SplitConfig's default eval_batch).
constexpr std::int64_t kEvalBatch = 64;

/// Loader seed of every comparator (SplitConfig's default seed).
constexpr std::uint64_t kLoaderSeed = 123;

}  // namespace

float Baseline::train_minibatch(nn::Sequential& net, data::DataLoader& loader,
                                optim::Sgd* opt) {
  const data::Batch batch = loader.next_batch();
  examples_drawn_ += static_cast<std::int64_t>(batch.labels.size());
  net.zero_grad();
  nn::SoftmaxCrossEntropy loss_fn;
  const float loss =
      loss_fn.forward(net.forward(batch.images, true), batch.labels);
  net.backward(loss_fn.backward());
  if (opt != nullptr) opt->step();
  return loss;
}

Baseline::Baseline(std::string protocol, const core::ModelBuilder& builder,
                   std::size_t replicas, const data::Dataset& train,
                   const data::Dataset& test, BaselineConfig config)
    : config_(std::move(config)),
      train_(&train),
      test_(&test),
      protocol_(std::move(protocol)) {
  SPLITMED_CHECK(config_.eval_every > 0,
                 "eval_every must be positive, got " << config_.eval_every);
  if (config_.threads > 0) set_global_threads(config_.threads);
  replicas_.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) replicas_.push_back(builder());
}

void Baseline::add_loaders(const data::Partition& partition,
                           const std::vector<std::int64_t>& batches) {
  Rng loader_rng(kLoaderSeed);
  for (std::size_t p = 0; p < partition.size(); ++p) {
    SPLITMED_CHECK(!partition[p].empty(), "shard " << p << " is empty");
    loaders_.emplace_back(*train_, partition[p], batches[p],
                          loader_rng.split(static_cast<std::uint64_t>(p)));
  }
}

Tensor Baseline::transfer(NodeId src, NodeId dst, BaselineMsg kind,
                          std::int64_t step, const Tensor& t) {
  return core::transfer_tensor(network_, src, dst,
                               static_cast<std::uint32_t>(kind),
                               static_cast<std::uint64_t>(step), t);
}

metrics::TrainReport Baseline::run() {
  metrics::TrainReport report;
  report.protocol = protocol_;
  report.model = replicas_.front().name;
  for (std::int64_t step = 1; step <= config_.steps; ++step) {
    const double loss = train_step(step);
    const bool budget_hit =
        config_.byte_budget > 0 &&
        network_.stats().total_bytes() >= config_.byte_budget;
    if (step % config_.eval_every == 0 || step == config_.steps ||
        budget_hit) {
      double accuracy = 0.0;
      accuracies_.clear();
      for (auto& replica : replicas_) {
        accuracies_.push_back(
            metrics::evaluate_model(replica.net, *test_, kEvalBatch));
        accuracy += accuracies_.back();
      }
      metrics::CurvePoint point;
      point.step = step;
      point.epoch = static_cast<double>(examples_drawn_) /
                    static_cast<double>(train_->size());
      point.cumulative_bytes = network_.stats().total_bytes();
      point.sim_seconds = network_.clock().now();
      point.train_loss = loss;
      point.test_accuracy = accuracy / static_cast<double>(replicas_.size());
      report.curve.push_back(point);
      SPLITMED_LOG(kInfo) << protocol_ << " step " << step << " loss " << loss
                          << " acc " << point.test_accuracy;
      report.steps_completed = step;
      report.final_accuracy = point.test_accuracy;
    }
    if (budget_hit) break;
  }
  report.total_bytes = network_.stats().total_bytes();
  report.total_sim_seconds = network_.clock().now();
  return report;
}

}  // namespace splitmed::baselines
