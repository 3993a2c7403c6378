#include "src/core/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "src/common/error.hpp"
#include "src/common/logging.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/checkpoint.hpp"
#include "src/core/split_model.hpp"
#include "src/metrics/evaluate.hpp"
#include "src/nn/param_util.hpp"
#include "src/obs/critical_path.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed::core {

void SplitConfig::validate(std::size_t num_platforms) const {
  SPLITMED_CHECK(num_platforms > 0, "partition has no platforms");
  SPLITMED_CHECK(rounds > 0, "rounds must be positive, got " << rounds);
  SPLITMED_CHECK(eval_every > 0,
                 "eval_every must be positive, got " << eval_every);
  SPLITMED_CHECK(total_batch > 0,
                 "total_batch must be positive, got " << total_batch);
  SPLITMED_CHECK(eval_batch > 0,
                 "eval_batch must be positive, got " << eval_batch);
  SPLITMED_CHECK(threads >= 0, "threads must be >= 0, got " << threads);
  SPLITMED_CHECK(participation > 0.0 && participation <= 1.0,
                 "participation must be in (0, 1]");
  faults.validate();
  recovery.validate();
  SPLITMED_CHECK(checkpoint_every >= 0,
                 "checkpoint_every must be >= 0, got " << checkpoint_every);
  SPLITMED_CHECK(checkpoint_every == 0 || !checkpoint_dir.empty(),
                 "checkpoint_every > 0 requires a checkpoint_dir");
  SPLITMED_CHECK(sync_l1_every >= 0,
                 "sync_l1_every must be >= 0, got " << sync_l1_every);
  if (faults.any()) {
    SPLITMED_CHECK(schedule == Schedule::kSequential,
                   "WAN fault injection requires the sequential schedule");
    SPLITMED_CHECK(sync_l1_every == 0,
                   "WAN fault injection does not cover the L1-sync extension");
  }
  if (schedule == Schedule::kBoundedStaleness) {
    SPLITMED_CHECK(staleness_bound >= 0,
                   "staleness_bound must be >= 0, got " << staleness_bound);
    SPLITMED_CHECK(sync_l1_every == 0,
                   "bounded staleness does not cover the L1-sync extension "
                   "(its sync barrier assumes drained round boundaries)");
  }
  if (membership.enabled) {
    membership.validate(num_platforms);
    churn.validate(num_platforms);
    SPLITMED_CHECK(schedule == Schedule::kSequential,
                   "membership requires the sequential schedule");
    SPLITMED_CHECK(sync_l1_every == 0,
                   "membership does not cover the L1-sync extension");
    SPLITMED_CHECK(participation >= 1.0,
                   "membership subsumes participation sampling (the churn "
                   "plan is the absence model) — participation must stay 1.0, "
                   "got "
                       << participation);
  } else {
    SPLITMED_CHECK(!churn.any(),
                   "churn plan has " << churn.crashes.size() << " crash and "
                                     << churn.poisons.size()
                                     << " poison event(s) but "
                                        "membership.enabled is false");
  }
}

SplitTrainer::SplitTrainer(ModelBuilder builder, const data::Dataset& train,
                           data::Partition partition,
                           const data::Dataset& test, SplitConfig config)
    : config_(std::move(config)), train_(&train), test_(&test) {
  config_.validate(partition.size());
  if (config_.threads > 0) set_global_threads(config_.threads);
  const bool faulted = config_.faults.any();
  if (config_.obs.enabled) {
    obs_session_ = std::make_unique<obs::ObsSession>(config_.obs);
    obs_session_->set_sim_source([this] { return network_.clock().now(); });
    obs::set_kind_namer([](std::uint32_t kind) {
      return std::string(msg_kind_name(static_cast<MsgKind>(kind)));
    });
    obs::metrics()
        ->gauge("splitmed_threads",
                "Compute threads in the tensor-substrate pool")
        .set(static_cast<double>(global_threads()));
    obs::metrics()
        ->gauge("splitmed_platforms",
                "Participating platform (hospital) count")
        .set(static_cast<double>(partition.size()));
  }
  participation_rng_ = Rng(config_.seed ^ 0xC2B2AE3D27D4EB4FULL);
  const std::int64_t k = static_cast<std::int64_t>(partition.size());

  topology_ = net::build_hospital_star(network_, k);
  if (faulted) {
    // A dedicated stream: fault draws never perturb loaders or init.
    network_.set_fault_seed(config_.seed ^ 0x9E3779B97F4A7C15ULL);
    network_.set_default_fault_plan(config_.faults);
  }

  // Replica 0 supplies the server body; every replica k supplies platform
  // k's L1. Deterministic builders make all replicas identical, realizing
  // the paper's "same initial weights in L1" postulate.
  std::vector<std::int64_t> shard_sizes;
  Rng loader_rng(config_.seed);
  for (std::int64_t p = 0; p < k; ++p) {
    models::BuiltModel replica = builder();
    const std::size_t cut = config_.cut > 0
                                ? static_cast<std::size_t>(config_.cut)
                                : replica.default_cut;
    if (p == 0) model_name_ = replica.name;
    SplitParts parts = split_at(std::move(replica.net), cut);
    if (p == 0) {
      ServerOptions server_opt;
      server_opt.codec = config_.codec;
      server_opt.allow_queueing = config_.schedule != Schedule::kSequential;
      server_opt.tolerate_faults = config_.faults.any();
      server_ = std::make_unique<CentralServer>(topology_.server,
                                                std::move(parts.server),
                                                config_.sgd, server_opt);
    }
    SPLITMED_CHECK(!partition[static_cast<std::size_t>(p)].empty(),
                   "platform " << p << " has an empty shard");
    shard_sizes.push_back(static_cast<std::int64_t>(
        partition[static_cast<std::size_t>(p)].size()));
    // drop_last: a platform always ships minibatches of exactly s_k — the
    // protocol's message sizes are constant, as the paper's byte model
    // assumes. Short epoch tails are dropped (reshuffled into next epoch).
    data::DataLoader loader(train, partition[static_cast<std::size_t>(p)],
                            /*batch_size=*/1,
                            loader_rng.split(static_cast<std::uint64_t>(p)),
                            /*drop_last=*/true);
    PlatformOptions platform_opt;
    platform_opt.codec = config_.codec;
    platform_opt.smash_noise_std = config_.smash_noise_std;
    platform_opt.noise_seed = config_.seed;
    platform_opt.tolerate_faults = config_.faults.any();
    platforms_.push_back(std::make_unique<PlatformNode>(
        topology_.platforms[static_cast<std::size_t>(p)], topology_.server,
        std::move(parts.platform), std::move(loader), config_.sgd,
        platform_opt));
    replica_rngs_.push_back(std::move(replica.rng));
  }

  minibatches_ =
      minibatch_sizes(config_.policy, config_.total_batch, shard_sizes);
  for (std::size_t p = 0; p < platforms_.size(); ++p) {
    SPLITMED_CHECK(minibatches_[p] <= shard_sizes[p],
                   "platform " << p << ": minibatch " << minibatches_[p]
                               << " exceeds its shard of " << shard_sizes[p]
                               << " examples — lower total_batch or use the "
                                  "proportional policy");
    platforms_[p]->set_minibatch_size(minibatches_[p]);
  }
  scheduler_ = std::make_unique<EventScheduler>(
      network_, *server_, platforms_,
      faulted ? std::optional<net::RetryPolicy>(config_.recovery)
              : std::nullopt);
  if (obs::CriticalPathAnalyzer* cp = obs::attribution()) {
    std::vector<std::string> names;
    names.reserve(network_.node_count());
    for (NodeId n = 0; n < network_.node_count(); ++n) {
      names.push_back(network_.node_name(n));
    }
    cp->set_topology(topology_.server, std::move(names));
  }
  if (config_.membership.enabled) {
    membership_ = std::make_unique<MembershipService>(
        config_.membership, config_.churn, platforms_.size(), config_.seed,
        minibatches_);
    server_->set_membership(membership_.get(), topology_.platforms);
    // Genesis L1 snapshot: at construction every replica is identical (the
    // paper's postulate), so platform 0's flattened values ARE the weights a
    // cold rejoin restarts from — the server never sees a CURRENT L1.
    server_->set_genesis_l1(
        nn::flatten_values(platforms_[0]->l1().parameters()));
  }
  report_.protocol = "split";
  report_.model = model_name_;
  if (!config_.resume_from.empty()) {
    load_checkpoint(resolve_resume_dir(config_.resume_from));
  }
}

PlatformNode& SplitTrainer::platform(std::size_t k) {
  SPLITMED_CHECK(k < platforms_.size(), "platform index out of range");
  return *platforms_[k];
}

double SplitTrainer::open_membership_round(std::int64_t round) {
  const double round_start = network_.clock().now();
  membership_->begin_round(round, round_start);

  // Poison spells are chaos-harness config, reapplied from the plan every
  // round — they need no checkpoint state.
  for (std::size_t p = 0; p < platforms_.size(); ++p) {
    if (const auto poison = membership_->active_poison(p, round)) {
      platforms_[p]->set_poison(poison->kind, poison->scale);
    } else {
      platforms_[p]->clear_poison();
    }
  }

  // Liveness beacons, delivered before any join or step so the server's
  // lease sweep next round sees them even when this round's steps never
  // start.
  for (std::size_t p = 0; p < platforms_.size(); ++p) {
    if (membership_->sends_heartbeat(p, network_.clock().now())) {
      platforms_[p]->send_heartbeat(network_, static_cast<std::uint32_t>(p),
                                    static_cast<std::uint64_t>(round));
      membership_->note_heartbeat_sent(p, network_.clock().now());
    }
  }
  scheduler_->settle();

  // Returned platforms owe a join handshake before they may step again. An
  // abandoned handshake is retried next round (begin_round re-promotes the
  // platform to REJOINING).
  for (std::size_t p = 0; p < platforms_.size(); ++p) {
    if (membership_->needs_rejoin(p) &&
        scheduler_->run_join(p, static_cast<std::uint64_t>(round),
                             membership_->rejoin_mode(p))) {
      membership_->note_rejoin_completed(p, network_.clock().now());
    }
  }
  return round_start + config_.membership.round_deadline_sec;
}

std::vector<std::size_t> SplitTrainer::run_sequential_round(
    std::vector<std::size_t> order, std::int64_t round) {
  double deadline = 0.0;
  if (membership_) {
    deadline = open_membership_round(round);
    // Start order rotated by round, so a tight deadline does not starve the
    // same tail of hospitals every round.
    const auto n = static_cast<std::int64_t>(order.size());
    std::rotate(order.begin(), order.begin() + round % n, order.end());
  }
  std::vector<std::size_t> stepped;
  for (const std::size_t p : order) {
    if (membership_) {
      if (!membership_->can_step(p)) continue;
      // The first eligible platform always steps (the liveness floor every
      // schedule guarantees); the deadline gates the rest.
      if (!stepped.empty() && network_.clock().now() >= deadline) {
        membership_->note_deadline_miss(p);
        continue;
      }
    }
    switch (scheduler_->run_step(p, ++step_id_, round)) {
      case StepOutcome::kCompleted:
        stepped.push_back(p);
        if (membership_) {
          membership_->note_step_completed(p, network_.clock().now());
        }
        break;
      case StepOutcome::kUnreachable:
        ++skipped_steps_;
        break;
      case StepOutcome::kRejected:
        // The platform aborted on the server's refusal — the strike is on
        // the ledger and the drawn minibatch rides in examples_lost.
        break;
    }
  }
  if (membership_) {
    last_round_void_ = membership_->end_round(
        round, static_cast<std::int64_t>(stepped.size()));
  }
  return stepped;
}

std::vector<std::size_t> SplitTrainer::sample_participants(
    std::int64_t round) {
  std::vector<std::size_t> out;
  if (config_.participation >= 1.0) {
    out.resize(platforms_.size());
    for (std::size_t p = 0; p < platforms_.size(); ++p) out[p] = p;
    return out;
  }
  for (std::size_t p = 0; p < platforms_.size(); ++p) {
    // Double-precision draw: narrowing the configured rate to float shifted
    // it by up to ~6e-8, so extreme rates (participation = 1e-6 sweeps)
    // sampled a measurably different distribution than configured.
    if (participation_rng_.bernoulli(config_.participation)) {
      out.push_back(p);
    }
  }
  if (out.empty()) {
    // Liveness: at least one hospital joins every round.
    out.push_back(static_cast<std::size_t>(
        static_cast<std::uint64_t>(round) % platforms_.size()));
  }
  return out;
}

void SplitTrainer::sync_l1(std::uint64_t round) {
  obs::Span span(obs::trace(), "trainer.sync_l1", "trainer");
  span.arg("round", round);
  // Weighted average of all platform L1 parameter vectors, by shard size.
  Tensor mean;
  double total_weight = 0.0;
  for (auto& p : platforms_) total_weight += static_cast<double>(p->shard_size());
  bool first = true;
  for (auto& p : platforms_) {
    const Tensor received =
        transfer_tensor(network_, p->id(), server_->id(), MsgKind::kL1SyncUp,
                        round, nn::flatten_values(p->l1().parameters()));
    const float w = static_cast<float>(
        static_cast<double>(p->shard_size()) / total_weight);
    if (first) {
      mean = ops::scale(received, w);
      first = false;
    } else {
      ops::axpy(w, received, mean);
    }
  }
  for (auto& p : platforms_) {
    nn::load_values(p->l1().parameters(),
                    transfer_tensor(network_, server_->id(), p->id(),
                                    MsgKind::kL1SyncDown, round, mean));
  }
}

double SplitTrainer::round_train_loss(
    const std::vector<std::size_t>& participants) const {
  // Once every platform has stepped at least once, all last_loss() values
  // are real (if possibly a round stale) and the all-platform average is the
  // smoother curve. Before that — early rounds under partial participation —
  // averaging everyone would mix initial last_loss_ = 0 placeholders into
  // the reported loss, biasing the Fig. 4 curve low, so only this round's
  // participants count.
  bool all_stepped = true;
  for (const auto& p : platforms_) {
    if (p->steps_completed() == 0) {
      all_stepped = false;
      break;
    }
  }
  double loss = 0.0;
  if (all_stepped) {
    for (const auto& p : platforms_) loss += p->last_loss();
    return loss / static_cast<double>(platforms_.size());
  }
  SPLITMED_ASSERT(!participants.empty(), "round without participants");
  // Only platforms that have completed at least one step carry a real
  // last_loss(); a never-stepped platform's 0.0 is a placeholder, not an
  // observation. Averaging placeholders in (the pre-fix behaviour) reported
  // a fake 0.0 loss whenever every participant of a round was abandoned
  // under faults.
  std::int64_t counted = 0;
  for (const std::size_t p : participants) {
    if (platforms_[p]->steps_completed() == 0) continue;
    loss += platforms_[p]->last_loss();
    ++counted;
  }
  if (counted > 0) return loss / static_cast<double>(counted);
  // Nobody in the fallback set has ever stepped (e.g. a 100% drop plan in
  // the first round): carry the previous curve point forward, or report NaN
  // when there is no observation at all — never a fabricated 0.0.
  if (!report_.curve.empty()) return report_.curve.back().train_loss;
  return std::numeric_limits<double>::quiet_NaN();
}

double SplitTrainer::evaluate() {
  double acc = 0.0;
  for (auto& p : platforms_) {
    acc += metrics::evaluate_composite(p->l1(), &server_->body(), *test_,
                                       config_.eval_batch);
  }
  return acc / static_cast<double>(platforms_.size());
}

metrics::TrainReport SplitTrainer::run() {
  // Buckets for the per-round wall-time histogram: synthetic smoke runs sit
  // in the 10ms decade, the full Fig. 4 workloads in the seconds decade.
  static const std::vector<double> kRoundWallBounds{
      0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0};
  for (std::int64_t round = static_cast<std::int64_t>(next_round_);
       round <= config_.rounds; ++round) {
    obs::Span round_span(obs::trace(), "trainer.round", "trainer");
    round_span.arg("round", static_cast<std::uint64_t>(round));
    if (obs::CriticalPathAnalyzer* cp = obs::attribution()) {
      cp->begin_round(round, network_.clock().now());
    }
    const bool timed = obs::metrics() != nullptr;
    const auto round_begin = timed ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
    const auto participants = sample_participants(round);
    // A step can be abandoned (hospital unreachable) or refused; only
    // platforms whose step completed count toward the examples processed
    // and the reported loss.
    std::vector<std::size_t> stepped;
    if (config_.schedule == Schedule::kSequential) {
      stepped = run_sequential_round(participants, round);
    } else {
      // Idle participants begin a step; a participant still mid-step (a
      // straggler under bounded staleness) keeps its in-flight step — it
      // folds in when its frames arrive, never twice in one round.
      for (const std::size_t p : participants) {
        if (!scheduler_->busy(p)) {
          scheduler_->begin_step(p, ++step_id_, round);
        }
      }
      // The round boundary waits for every step older than the staleness
      // bound (S = 0: all of them) and for at least one completion.
      // Checkpoint boundaries and the final round are full drain barriers
      // (every straggler folds in before state is captured or the report
      // closes).
      const bool drain_fully =
          round == config_.rounds ||
          (config_.checkpoint_every > 0 &&
           round % config_.checkpoint_every == 0);
      scheduler_->drain(drain_fully ? round : round - config_.staleness_bound,
                        stepped);
    }
    // Completion order is arrival order (or the rotated membership start
    // order); report in ascending platform index so downstream accounting
    // (loss averaging, example sums) is independent of WAN timing.
    std::sort(stepped.begin(), stepped.end());
    for (const std::size_t p : stepped) {
      examples_processed_ += minibatches_[p];
    }
    if (obs::MetricsRegistry* m = obs::metrics()) {
      m->gauge("splitmed_active_platforms",
               "Platforms whose protocol step completed this round")
          .set(static_cast<double>(stepped.size()));
    }
    if (obs::Gauge* g = obs::event_queue_depth_gauge()) {
      g->set(static_cast<double>(network_.total_in_flight()));
    }
    // Every protocol step of this round has folded in (or been abandoned),
    // so the round's attributable sim time is complete. Eval and
    // checkpointing below are sim-instantaneous; the periodic L1 sync does
    // move the clock, but that time belongs to the sync barrier, not to any
    // round's critical path — it falls in the gap between this close and the
    // next begin.
    if (obs::CriticalPathAnalyzer* cp = obs::attribution()) {
      cp->close_round(round, network_.clock().now());
    }
    if (config_.sync_l1_every > 0 && round % config_.sync_l1_every == 0) {
      sync_l1(step_id_);
    }

    const bool budget_hit =
        config_.byte_budget > 0 &&
        network_.stats().total_bytes() >= config_.byte_budget;
    if (round % config_.eval_every == 0 || round == config_.rounds ||
        budget_hit) {
      metrics::CurvePoint point;
      point.step = round;
      point.epoch = static_cast<double>(examples_processed_) /
                    static_cast<double>(train_->size());
      point.cumulative_bytes = network_.stats().total_bytes();
      point.sim_seconds = network_.clock().now();
      // When every participant was unreachable this round, fall back to the
      // sampled participants' (stale) losses rather than averaging nothing.
      // A VOID membership round (below min_quorum) carries the previous
      // point's loss instead — the round is declared not to have happened.
      if (membership_ && last_round_void_ && !report_.curve.empty()) {
        point.train_loss = report_.curve.back().train_loss;
      } else {
        point.train_loss = round_train_loss(stepped.empty() ? participants
                                                            : stepped);
      }
      {
        obs::Span eval_span(obs::trace(), "trainer.eval", "trainer");
        eval_span.arg("round", static_cast<std::uint64_t>(round));
        point.test_accuracy = evaluate();
      }
      if (obs::TraceRecorder* tr = obs::trace()) {
        tr->counter("train_loss", point.train_loss);
        tr->counter("test_accuracy", point.test_accuracy);
        tr->counter("cumulative_bytes",
                    static_cast<double>(point.cumulative_bytes));
      }
      if (obs::MetricsRegistry* m = obs::metrics()) {
        m->gauge("splitmed_train_loss", "Round-mean training loss")
            .set(point.train_loss);
        m->gauge("splitmed_test_accuracy",
                 "Mean composite-model test accuracy")
            .set(point.test_accuracy);
        m->gauge("splitmed_sim_seconds", "Simulated WAN clock")
            .set(point.sim_seconds);
      }
      report_.curve.push_back(point);
      SPLITMED_LOG(kInfo) << "split round " << round << " loss "
                          << point.train_loss << " acc "
                          << point.test_accuracy << " bytes "
                          << point.cumulative_bytes;
      report_.steps_completed = round;
      report_.final_accuracy = point.test_accuracy;
    }
    next_round_ = static_cast<std::uint64_t>(round) + 1;
    // Checkpoint at the round boundary (network quiescent, every node
    // idle), after the curve point so a resumed report continues it.
    // Saving reads but never mutates training state — the curve is bitwise
    // identical with checkpointing on or off.
    if (config_.checkpoint_every > 0 &&
        round % config_.checkpoint_every == 0) {
      obs::Span ckpt_span(obs::trace(), "trainer.checkpoint", "trainer");
      ckpt_span.arg("round", static_cast<std::uint64_t>(round));
      obs::flight_note(network_.clock().now(),
                       "checkpoint round " + std::to_string(round));
      save_checkpoint(config_.checkpoint_dir,
                      static_cast<std::uint64_t>(round));
    }
    if (timed) {
      obs::metrics()
          ->histogram("splitmed_round_wall_seconds",
                      "Host wall-clock time per training round",
                      kRoundWallBounds)
          .observe(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - round_begin)
                       .count());
    }
    if (budget_hit) break;
  }
  report_.total_bytes = network_.stats().total_bytes();
  report_.total_sim_seconds = network_.clock().now();
  report_.skipped_steps = skipped_steps_;
  report_.examples_lost = 0;
  for (const auto& p : platforms_) report_.examples_lost += p->examples_lost();
  if (membership_) {
    // Outage windows are the membership extension of examples_lost: the
    // minibatches an offline hospital never even drew.
    const MembershipLedger& led = membership_->ledger();
    report_.examples_lost += led.outage_examples_lost;
    report_.rejected_updates = led.rejected_updates();
    report_.quarantines = led.quarantines;
    report_.void_rounds = led.void_rounds;
    report_.deadline_misses = led.deadline_misses;
  }
  return report_;
}

}  // namespace splitmed::core
