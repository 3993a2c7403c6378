// Minibatch iteration over an index shard of a dataset.
//
// A DataLoader owns its shard (the platform's local indices) and an Rng for
// per-epoch shuffling; next_batch() cycles forever, reshuffling at each epoch
// boundary, which matches how the paper's platforms keep feeding minibatches
// of size s_k.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/data/dataset.hpp"
#include "src/serial/buffer.hpp"

namespace splitmed::data {

struct Batch {
  Tensor images;                      // NCHW
  std::vector<std::int64_t> labels;   // size N
};

class DataLoader {
 public:
  /// `indices` is the shard this loader draws from; `batch_size` may be
  /// smaller on the final batch of an epoch when drop_last is false.
  DataLoader(const Dataset& dataset, std::vector<std::int64_t> indices,
             std::int64_t batch_size, Rng rng, bool drop_last = false);

  /// Next minibatch; reshuffles and restarts when the shard is exhausted.
  Batch next_batch();

  /// All examples of the shard in index order (for evaluation).
  [[nodiscard]] Batch full_shard() const;

  [[nodiscard]] std::int64_t shard_size() const {
    return static_cast<std::int64_t>(indices_.size());
  }
  [[nodiscard]] std::int64_t batch_size() const { return batch_size_; }
  void set_batch_size(std::int64_t batch_size);

  /// Batches per epoch under the current batch size.
  [[nodiscard]] std::int64_t batches_per_epoch() const;

  /// Serializes iteration state: the current epoch's shuffled permutation,
  /// the cursor into it, and the shuffle RNG. The shard *membership* is not
  /// state — it is derived from config at construction — so load_state
  /// verifies the stored permutation is a permutation of this loader's shard.
  void save_state(BufferWriter& writer) const;

  /// Mirror of save_state. Throws SerializationError on malformed input or a
  /// permutation that does not match this loader's shard.
  void load_state(BufferReader& reader);

 private:
  void start_epoch();

  const Dataset* dataset_;  // non-owning; outlives the loader
  std::vector<std::int64_t> indices_;
  std::int64_t batch_size_;
  bool drop_last_;
  Rng rng_;
  std::size_t cursor_ = 0;
};

}  // namespace splitmed::data
