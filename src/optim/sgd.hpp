// SGD with optional momentum and L2 weight decay.
//
// An optimizer owns no parameters; it updates the ones it is given. The split
// framework instantiates one on the server (for L2…Lk) and one per platform
// (for L1), each over its own parameter set — exactly the paper's division of
// labour.
#pragma once

#include <vector>

#include "src/nn/parameter.hpp"
#include "src/serial/buffer.hpp"
#include "src/tensor/tensor.hpp"

namespace splitmed::optim {

struct SgdOptions {
  float learning_rate = 0.01F;
  float momentum = 0.0F;
  float weight_decay = 0.0F;
};

class Sgd {
 public:
  Sgd(std::vector<nn::Parameter*> params, SgdOptions options);

  /// Applies one update from the accumulated gradients. Does NOT zero them.
  void step();

  /// Zeroes the velocity, as on a fresh optimizer. Used by a cold platform
  /// rejoin: a platform that lost its local state restarts from the genesis
  /// L1 weights, and momentum accumulated against the lost trajectory must
  /// not leak in.
  void reset_state();

  /// Serializes the velocity. Hyperparameters are NOT included: they come
  /// from config at reconstruction, so a checkpoint cannot silently override
  /// the configured run.
  void save_state(BufferWriter& writer) const;

  /// Mirror of save_state. Throws SerializationError when the stored
  /// velocity does not match this optimizer's parameter shapes.
  void load_state(BufferReader& reader);

 private:
  std::vector<nn::Parameter*> params_;
  SgdOptions options_;
  std::vector<Tensor> velocity_;  // parallel to params_
};

}  // namespace splitmed::optim
