// The Fig. 4 comparators and their one training loop.
//
// Every comparator (Sync SGD, FedAvg, cyclic, local-only) is a Baseline: the
// base owns the config, the datasets, the simulated network, the model
// replicas and the per-shard loaders, and Baseline::run() is the only code
// that steps, checks the byte budget and records curve points. A comparator
// keeps its constructor and a train_step() that moves its own bytes, so the
// Fig. 4 curves differ only in what bytes move when. Field meanings match
// core::SplitConfig.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/trainer.hpp"
#include "src/data/dataloader.hpp"
#include "src/optim/sgd.hpp"

namespace splitmed::baselines {

struct BaselineConfig {
  /// Global batch per step (divided across workers where applicable).
  std::int64_t total_batch = 64;
  /// Optimization steps (sync SGD / local-only),
  /// communication rounds (FedAvg) or ring cycles (cyclic).
  std::int64_t steps = 100;
  std::int64_t eval_every = 10;
  /// Stop once this many wire bytes moved (0 = unlimited).
  std::uint64_t byte_budget = 0;
  optim::SgdOptions sgd{};
  /// FedAvg and cyclic only: local SGD steps per platform visit.
  std::int64_t local_steps = 5;
  /// Compute threads for the tensor substrate (same contract as
  /// core::SplitConfig::threads): 0 = keep the global default, 1 = serial.
  int threads = 0;
};

/// Message kinds used by the baselines (disjoint from core::MsgKind values).
enum class BaselineMsg : std::uint32_t {
  kGradPush = 101,        // worker -> server: flattened gradient
  kParamPull = 102,       // server -> worker: flattened parameters
  kFedPull = 201,         // server -> platform: global parameters
  kFedPush = 202,         // platform -> server: locally updated parameters
  kCyclicTransfer = 301,  // hospital -> next hospital: full parameters
};

class Baseline {
 public:
  virtual ~Baseline() = default;
  Baseline(const Baseline&) = delete;
  Baseline& operator=(const Baseline&) = delete;

  /// Runs config.steps steps, stopping early at the step that spends the
  /// byte budget. A curve point is recorded every eval_every steps, at the
  /// last step and at the step that spends the budget; its accuracy is the
  /// mean over the replicas, its epoch the examples drawn so far over
  /// |train|.
  metrics::TrainReport run();

  [[nodiscard]] net::Network& network() { return network_; }

 protected:
  /// One SGD minibatch on `net`: zero_grad, forward, softmax cross-entropy,
  /// backward, then `opt->step()` unless `opt` is null (the caller applies
  /// the gradient). Adds the batch's rows to the examples drawn, which the
  /// curve's epoch counts. Returns the minibatch loss.
  float train_minibatch(nn::Sequential& net, data::DataLoader& loader,
                        optim::Sgd* opt);

  /// Builds `replicas` models with `builder` after applying config.threads.
  /// Throws InvalidArgument unless config.eval_every is positive.
  Baseline(std::string protocol, const core::ModelBuilder& builder,
           std::size_t replicas, const data::Dataset& train,
           const data::Dataset& test, BaselineConfig config);

  /// One step (a round for FedAvg, a cycle for cyclic): trains and moves
  /// this protocol's bytes. Returns the step's mean minibatch loss.
  virtual double train_step(std::int64_t step) = 0;

  /// Appends one loader per shard: shard p draws batches[p] examples from
  /// Rng(123).split(p), 123 being SplitConfig's default seed. Every shard
  /// must be non-empty.
  void add_loaders(const data::Partition& partition,
                   const std::vector<std::int64_t>& batches);

  /// core::transfer_tensor on this network, step-stamped.
  Tensor transfer(NodeId src, NodeId dst, BaselineMsg kind, std::int64_t step,
                  const Tensor& t);

  BaselineConfig config_;
  const data::Dataset* train_;
  const data::Dataset* test_;
  net::Network network_;
  std::vector<models::BuiltModel> replicas_;
  std::vector<data::DataLoader> loaders_;
  /// Per-replica test accuracy at the last curve point.
  std::vector<double> accuracies_;

 private:
  std::string protocol_;
  /// Training examples every train_minibatch so far has drawn.
  std::int64_t examples_drawn_ = 0;
};

}  // namespace splitmed::baselines
