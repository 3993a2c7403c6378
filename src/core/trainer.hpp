// SplitTrainer — orchestrates the paper's training workflow (Fig. 3) over
// the simulated network.
//
// One round = every platform performs one 4-message protocol step against
// the server. Under the paper's sequential schedule at most one step is in
// flight (the server's L2..Lk state is updated after each platform's
// minibatch — round-robin split learning); the bounded-staleness schedule
// keeps many in flight (staleness bound 0: overlapped, drained every
// round). Either way the EventScheduler delivers every frame; the trainer
// keeps the round policy (participants, membership gates, drain horizons).
// Platforms keep their own L1 replicas, initialized identically (the
// paper's postulate) and never re-synchronized unless the sync_l1_every
// extension is enabled.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/core/membership.hpp"
#include "src/core/minibatch_policy.hpp"
#include "src/core/platform.hpp"
#include "src/core/scheduler.hpp"
#include "src/core/server.hpp"
#include "src/data/partition.hpp"
#include "src/metrics/curve.hpp"
#include "src/models/model.hpp"
#include "src/net/topology.hpp"
#include "src/obs/obs.hpp"

namespace splitmed::core {

/// Builds one fresh replica of the model. Must be deterministic: every call
/// returns identical weights (same seed), which is how all platforms start
/// with the same L1.
using ModelBuilder = std::function<models::BuiltModel()>;

/// How a round's K platform steps are laid onto the WAN.
enum class Schedule {
  /// The paper's Fig. 3 workflow: platforms served strictly one after
  /// another; platform k+1 starts uploading only after k fully finished.
  kSequential,
  /// All participating platforms upload concurrently (separate WAN links);
  /// the server processes arrivals FIFO, and a round only waits for steps
  /// that started more than `staleness_bound` rounds ago, so a straggler
  /// hospital folds its step in late instead of stalling everyone. With
  /// staleness_bound = 0 every round boundary is a full drain barrier (the
  /// overlapped schedule): same mathematics, same bytes as sequential, less
  /// wall-clock. Deterministic — completion order is the network's (arrival
  /// time, send sequence) order. Requires sync_l1_every == 0.
  kBoundedStaleness,
};

struct SplitConfig {
  /// Sequential entries kept on the platform; 0 = the model's default_cut.
  std::int64_t cut = 0;
  /// Sum of all platform minibatches per round (paper: sum of s_k).
  std::int64_t total_batch = 64;
  MinibatchPolicy policy = MinibatchPolicy::kProportional;
  std::int64_t rounds = 100;
  /// Evaluate + record a curve point every this many rounds.
  std::int64_t eval_every = 10;
  /// Stop early once this many wire bytes have moved (0 = unlimited).
  std::uint64_t byte_budget = 0;
  std::int64_t eval_batch = 64;
  optim::SgdOptions sgd{};
  /// Extension (ablation): average L1 weights across platforms every N
  /// rounds through the server, byte-accounted. 0 = never (the paper).
  std::int64_t sync_l1_every = 0;
  std::uint64_t seed = 123;

  /// --- extensions (defaults reproduce the paper exactly) -------------------
  /// Negotiated wire codec for activations / cut grads (kF16 = 2x, kI8 = 4x
  /// payload compression; logits stay f32). Saved in checkpoints — resume
  /// refuses a mismatched codec so recovery is bitwise-faithful per codec.
  WireCodec codec = WireCodec::kF32;
  /// Gaussian noise stddev added to outgoing activations (privacy defense).
  float smash_noise_std = 0.0F;
  Schedule schedule = Schedule::kSequential;
  /// kBoundedStaleness only: how many rounds late a straggler's step may
  /// fold in. Round r's boundary waits for every step begun at or before
  /// round r - staleness_bound (and for at least one completion, so every
  /// round makes progress). 0 = a full drain every round (overlapped).
  std::int64_t staleness_bound = 1;
  /// Per-round probability that a platform participates (fault injection /
  /// intermittent hospitals). At least one platform always participates.
  double participation = 1.0;
  /// WAN fault injection (extension): seeded per-link drop / duplicate /
  /// corruption / delay-spike rates, installed as the network-wide default
  /// plan. Any nonzero rate turns on CRC trailers and protocol-level
  /// recovery (timeouts, retransmissions, idempotent duplicate handling).
  /// All-zero (the default) leaves every byte and RNG stream untouched —
  /// bitwise identical to a fault-free build. Requires the sequential
  /// schedule and sync_l1_every == 0.
  net::FaultPlan faults{};
  /// Timeout / exponential-backoff retransmission policy (simulated time)
  /// used when `faults` has any nonzero rate.
  net::RetryPolicy recovery{};
  /// Compute threads for the tensor substrate (resizes the process-global
  /// pool). 0 keeps the current global default (SPLITMED_THREADS env var or
  /// hardware_concurrency); 1 forces the serial path. Thread count never
  /// changes bytes, message order, or curves — see docs/PROTOCOL.md.
  int threads = 0;

  /// Crash recovery (extension; see docs/CHECKPOINT.md). checkpoint_every
  /// > 0 writes a full-state checkpoint to checkpoint_dir every N rounds
  /// (at the round boundary, after eval). Saving never touches training
  /// state — curves are bitwise identical with checkpointing on or off.
  std::int64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  /// Resume path: either one round directory (".../round_000040") or a
  /// checkpoint_dir to scan for the newest complete round. Empty = fresh
  /// run. The checkpoint must match this config (seed, model, platform
  /// count) — resuming under a different config is refused.
  std::string resume_from;

  /// Observability (extension; see docs/OBSERVABILITY.md): dual-clock
  /// tracing, a metrics registry, and the protocol flight recorder. The
  /// trainer owns the ObsSession; files are exported when the trainer is
  /// destroyed (or on ObsSession::flush). Disabled (the default) is bitwise
  /// inert, and enabling it never changes bytes, RNG streams, or curves —
  /// asserted by golden_curve_test.
  obs::ObsConfig obs{};

  /// Platform membership under churn (extension; see docs/PROTOCOL.md
  /// "Membership"): liveness leases, deadline-closed rounds with quorum
  /// degradation, update validation with quarantine, and rejoin handshakes.
  /// Disabled (the default) is bitwise inert. Requires the sequential
  /// schedule, sync_l1_every == 0, and participation == 1.0 (membership
  /// subsumes participation sampling — churn IS the absence model).
  MembershipConfig membership{};
  /// Deterministic environment script (crashes / outages / poison spells)
  /// driving the chaos harness. Requires membership.enabled when non-empty.
  ChurnPlan churn{};

  /// Full config validation; throws InvalidArgument naming the offending
  /// flag (and both sides of a contradictory combination). Called by the
  /// trainer constructor with the partition's platform count.
  void validate(std::size_t num_platforms) const;
};

class SplitTrainer {
 public:
  /// `partition[k]` is platform k's shard of `train`. Both datasets must
  /// outlive the trainer.
  SplitTrainer(ModelBuilder builder, const data::Dataset& train,
               data::Partition partition, const data::Dataset& test,
               SplitConfig config);

  /// Runs the configured number of rounds (or until the byte budget) and
  /// returns the training curve.
  metrics::TrainReport run();

  /// Mean test accuracy over the K composite models (platform k's L1 + the
  /// shared server body) — each hospital's deployable model.
  double evaluate();

  [[nodiscard]] std::size_t num_platforms() const { return platforms_.size(); }
  [[nodiscard]] PlatformNode& platform(std::size_t k);
  [[nodiscard]] CentralServer& server() { return *server_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] const std::vector<std::int64_t>& minibatches() const {
    return minibatches_;
  }
  /// The trainer-owned observability session; null when config.obs is
  /// disabled. Benches use it to flush trace/metrics files mid-run.
  [[nodiscard]] obs::ObsSession* obs_session() { return obs_session_.get(); }
  /// The membership authority; null when config.membership is disabled.
  [[nodiscard]] const MembershipService* membership() const {
    return membership_.get();
  }

  /// Writes a complete round-stamped checkpoint to
  /// `<dir>/round_<round>/` (node files first, manifest last; every file
  /// atomic). Must be called at a round boundary (every node idle; frames
  /// still in flight — possible under fault injection — are captured in the
  /// network state). Side-effect free on training state.
  void save_checkpoint(const std::string& dir, std::uint64_t round);

  /// Restores the trainer from the round directory `round_dir` (a path
  /// containing manifest.smckpt). Throws SerializationError on malformed or
  /// config-mismatched files, ProtocolError when a node file's round stamp
  /// disagrees with the manifest. Called by the constructor when
  /// config.resume_from is set.
  void load_checkpoint(const std::string& round_dir);

  /// First round the next run() call will execute (1 for a fresh trainer,
  /// checkpoint round + 1 after a resume).
  [[nodiscard]] std::uint64_t next_round() const { return next_round_; }

 private:
  /// Membership round preamble: poison script, heartbeats, then rejoin
  /// handshakes. Returns the round's step deadline.
  double open_membership_round(std::int64_t round);
  /// One sequential round: steps `order`'s platforms one at a time through
  /// the scheduler (under membership: rotated, eligibility- and
  /// deadline-gated). Returns the platforms whose step completed.
  std::vector<std::size_t> run_sequential_round(std::vector<std::size_t> order,
                                                std::int64_t round);
  /// Samples this round's participants (>= 1, deterministic in the seed).
  std::vector<std::size_t> sample_participants(std::int64_t round);
  /// Mean last_loss over this round's participants; once every platform has
  /// taken >= 1 step, the mean over all platforms (see docs/PROTOCOL.md).
  double round_train_loss(const std::vector<std::size_t>& participants) const;
  /// L1 weight averaging extension (byte-accounted through the network).
  void sync_l1(std::uint64_t round);

  SplitConfig config_;
  const data::Dataset* train_;
  const data::Dataset* test_;
  net::Network network_;
  net::StarTopology topology_;
  std::unique_ptr<CentralServer> server_;
  std::vector<std::unique_ptr<PlatformNode>> platforms_;
  /// The round engine: the only code that delivers frames during a round,
  /// under every schedule, fault setting and membership path. Built after
  /// the node set is final.
  std::unique_ptr<EventScheduler> scheduler_;
  /// Keeps each replica's Rng alive (Dropout layers hold pointers into it).
  std::vector<std::unique_ptr<Rng>> replica_rngs_;
  std::vector<std::int64_t> minibatches_;
  std::string model_name_;
  std::int64_t examples_processed_ = 0;
  std::int64_t skipped_steps_ = 0;
  Rng participation_rng_{0};
  /// Membership authority (null unless config.membership.enabled); the
  /// server holds a non-owning pointer for admission and lease renewal.
  std::unique_ptr<MembershipService> membership_;
  /// Set by run_sequential_round when a membership round closed below
  /// min_quorum — the curve point carries the previous loss instead of
  /// fabricating one.
  bool last_round_void_ = false;
  /// Run-progress state, members (not run() locals) so a checkpoint can
  /// capture them and a resumed trainer continues mid-report.
  std::uint64_t next_round_ = 1;
  std::uint64_t step_id_ = 0;
  metrics::TrainReport report_;
  /// Declared LAST so it is destroyed FIRST: the destructor exports trace /
  /// metrics / flight-recorder files while the rest of the trainer (network
  /// clock, stats) is still alive.
  std::unique_ptr<obs::ObsSession> obs_session_;
};

}  // namespace splitmed::core
