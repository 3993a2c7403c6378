// Optimizer interface: owns no parameters, updates the ones it is given.
//
// The split framework instantiates one optimizer on the server (for L2…Lk)
// and one per platform (for L1), each over its own parameter set — exactly
// the paper's division of labour.
#pragma once

#include <vector>

#include "src/nn/parameter.hpp"
#include "src/serial/buffer.hpp"

namespace splitmed::optim {

class Optimizer {
 public:
  explicit Optimizer(std::vector<nn::Parameter*> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  /// Applies one update from the accumulated gradients. Does NOT zero them.
  virtual void step() = 0;

  /// Zeroes all gradient accumulators.
  void zero_grad() {
    for (nn::Parameter* p : params_) p->zero_grad();
  }

  /// Clears all accumulator state (momentum / moment estimates) back to the
  /// freshly-constructed value. Used by a cold platform rejoin: a platform
  /// that lost its local state restarts from the genesis L1 weights, and
  /// momentum accumulated against the lost trajectory must not leak in.
  virtual void reset_state() = 0;

  /// Serializes accumulator state (momentum / moment estimates). Hyper-
  /// parameters are NOT included: they come from config at reconstruction,
  /// so a checkpoint cannot silently override the configured run.
  virtual void save_state(BufferWriter& writer) const = 0;

  /// Mirror of save_state. Throws SerializationError when the stored
  /// accumulators do not match this optimizer's parameter shapes.
  virtual void load_state(BufferReader& reader) = 0;

  [[nodiscard]] const std::vector<nn::Parameter*>& parameters() const {
    return params_;
  }

 protected:
  std::vector<nn::Parameter*> params_;
};

}  // namespace splitmed::optim
