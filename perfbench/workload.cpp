// One repetition of one benchmark workload (see README.md).
//
//   perfbench_workload --workload NAME --seed N --mode plain|traced
//                      [--spans-out FILE]
//
// Builds the workload's inputs from the seed, runs it through the public
// SplitTrainer API with one compute thread and observability off, and prints
// one JSON object: the exact outputs that run.py checks, and the raw
// measurements it reduces to medians across repetitions.
//
// plain:  set-up (repeated Spec::setups times), SplitTrainer::run(), held-out
//         evaluation, peak RSS.
// traced: the same work with the benchmark's own spans around every call it
//         makes into a module, then replays of the layers below those calls
//         at the workload's shapes; prints the per-layer metrics.
#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/spans.hpp"
#include "src/common/aligned.hpp"
#include "src/common/stopwatch.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/protocol.hpp"
#include "src/core/split_model.hpp"
#include "src/core/trainer.hpp"
#include "src/data/partition.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/metrics/evaluate.hpp"
#include "src/models/factory.hpp"
#include "src/models/model_stats.hpp"
#include "src/net/topology.hpp"
#include "src/obs/critical_path.hpp"
#include "src/optim/sgd.hpp"
#include "src/serial/codec.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/workspace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace splitmed;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Spec {
  std::string name;
  std::string model;
  std::int64_t classes = 10;
  std::int64_t image_size = 16;
  /// Pixel noise of the synthetic images (see README.md, "Workloads").
  float noise = 0.4F;
  std::int64_t train_examples = 512;
  /// SplitTrainer::run() evaluates once, at its final round, on this set.
  std::int64_t test_examples = 128;
  /// Held-out set for eval_examples_per_s.
  std::int64_t heldout_examples = 256;
  /// Composite models (platform L1 + server body) evaluated per pass.
  std::int64_t eval_platforms = 4;
  std::int64_t eval_passes = 5;
  /// Set-ups per repetition (setup_s is the median over a run's set-ups).
  int setups = 3;
  std::int64_t eval_batch = 64;
  std::int64_t platforms = 4;
  double zipf_alpha = 0.0;  ///< 0 = iid shards
  std::int64_t total_batch = 32;
  std::int64_t rounds = 30;
  core::Schedule schedule = core::Schedule::kSequential;
  std::int64_t staleness_bound = 1;
  double participation = 1.0;
  WireCodec codec = WireCodec::kF32;
  /// Membership, a seeded churn plan and WAN faults (the chaos workload).
  bool chaos = false;
  /// Frames in flight at once, for the network replay.
  std::int64_t net_depth = 1;
};

/// True when run() steps through SplitTrainer::run_platform_step (the
/// paper's sequential, fault-free schedule), so the traced run can drive
/// the same calls itself.
bool drives_steps(const Spec& spec) {
  return spec.schedule == core::Schedule::kSequential && !spec.chaos &&
         spec.participation == 1.0;
}

std::vector<Spec> all_specs() {
  std::vector<Spec> specs;
  Spec vgg;
  vgg.name = "fig4_vgg";
  vgg.model = "vgg-mini";
  vgg.zipf_alpha = 0.8;
  vgg.rounds = 120;
  specs.push_back(vgg);

  Spec resnet = vgg;
  resnet.name = "fig4_resnet_i8";
  resnet.model = "resnet-mini";
  resnet.codec = WireCodec::kI8;
  resnet.rounds = 16;
  resnet.heldout_examples = 128;
  resnet.eval_platforms = 2;
  specs.push_back(resnet);

  Spec fleet;
  fleet.name = "fleet_k1024";
  fleet.model = "mlp";
  fleet.classes = 4;
  fleet.image_size = 8;
  fleet.noise = 0.1F;
  fleet.platforms = 1024;
  fleet.train_examples = 4 * fleet.platforms;
  fleet.test_examples = 96;
  fleet.heldout_examples = 2048;
  fleet.eval_platforms = 8;
  fleet.eval_batch = 128;
  fleet.total_batch = fleet.platforms;  // one example per platform per step
  fleet.schedule = core::Schedule::kBoundedStaleness;
  fleet.staleness_bound = 1;
  fleet.participation = 32.0 / 1024.0;
  fleet.codec = WireCodec::kF16;
  fleet.rounds = 200;
  fleet.setups = 1;  // 1024 replicas: one set-up already takes ~0.6 s
  fleet.net_depth = 32;
  specs.push_back(fleet);

  Spec chaos;
  chaos.name = "chaos_k64";
  chaos.model = "mlp";
  chaos.classes = 4;
  chaos.image_size = 8;
  chaos.platforms = 64;
  chaos.train_examples = 4 * chaos.platforms;
  chaos.test_examples = 96;
  chaos.heldout_examples = 2048;
  chaos.eval_platforms = 8;
  chaos.eval_batch = 128;
  chaos.total_batch = 2 * chaos.platforms;
  chaos.chaos = true;
  chaos.rounds = 160;
  specs.push_back(chaos);
  return specs;
}

/// Every seed the workload uses, derived from the one on the command line.
struct Seeds {
  std::uint64_t data = 0;
  std::uint64_t partition = 0;
  std::uint64_t split = 0;  ///< SplitConfig::seed (loaders, faults, ...)
  std::uint64_t churn = 0;
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Seeds derive_seeds(std::uint64_t seed) {
  Seeds s;
  s.data = splitmix(seed * 4 + 0);
  s.partition = splitmix(seed * 4 + 1);
  s.split = splitmix(seed * 4 + 2);
  s.churn = splitmix(seed * 4 + 3);
  return s;
}

core::SplitConfig make_config(const Spec& spec, const Seeds& seeds) {
  core::SplitConfig cfg;
  cfg.total_batch = spec.total_batch;
  cfg.policy = core::MinibatchPolicy::kProportional;
  cfg.rounds = spec.rounds;
  cfg.eval_every = spec.rounds;
  cfg.eval_batch = spec.eval_batch;
  cfg.sgd.learning_rate = 0.02F;
  cfg.sgd.momentum = 0.5F;
  cfg.seed = seeds.split;
  cfg.codec = spec.codec;
  cfg.schedule = spec.schedule;
  cfg.staleness_bound = spec.staleness_bound;
  cfg.participation = spec.participation;
  // ThreadPool is unsafe above two threads (README.md, "Threads").
  cfg.threads = 1;
  if (spec.chaos) {
    cfg.membership.enabled = true;
    cfg.membership.round_deadline_sec = 3600.0;
    cfg.membership.norm_bomb_factor = 1024.0;
    cfg.membership.norm_window = 128;
    core::ChurnRates rates;
    rates.crash_rate = 0.02;
    rates.mean_offline_sec = 30.0;
    rates.cold_fraction = 0.5;
    rates.poison_rate = 0.002;
    rates.poison_rounds = 4;
    cfg.churn = core::ChurnPlan::random(
        seeds.churn, static_cast<std::size_t>(spec.platforms), spec.rounds,
        rates);
    cfg.faults.drop_rate = 0.01;
    cfg.faults.duplicate_rate = 0.01;
    cfg.faults.corrupt_rate = 0.01;
    cfg.faults.delay_spike_rate = 0.01;
  }
  return cfg;
}

models::BuiltModel build_replica(const Spec& spec) {
  models::FactoryConfig cfg;
  cfg.name = spec.model;
  cfg.image_size = spec.image_size;
  cfg.num_classes = spec.classes;
  return models::build_model(cfg);
}

std::unique_ptr<data::SyntheticCifar> make_data(const Spec& spec,
                                                std::uint64_t seed,
                                                std::int64_t examples,
                                                std::int64_t offset) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = examples;
  opt.num_classes = spec.classes;
  opt.image_size = spec.image_size;
  opt.noise_stddev = spec.noise;
  opt.seed = seed;
  opt.index_offset = offset;
  return std::make_unique<data::SyntheticCifar>(opt);
}

/// Datasets outlive the trainer that points into them: the trainer is
/// declared last, so it is destroyed first.
struct Setup {
  std::unique_ptr<data::SyntheticCifar> train;
  std::unique_ptr<data::SyntheticCifar> test;
  std::unique_ptr<data::SyntheticCifar> heldout;
  std::unique_ptr<core::SplitTrainer> trainer;
};

Setup make_setup(const Spec& spec, const Seeds& seeds, core::SplitConfig cfg,
                 SpanLog* log) {
  Setup s;
  Scoped setup_span(log, "setup");
  data::Partition partition;
  {
    Scoped span(log, "data.synth");
    s.train = make_data(spec, seeds.data, spec.train_examples, 0);
    s.test = make_data(spec, seeds.data, spec.test_examples,
                       spec.train_examples);
    s.heldout = make_data(spec, seeds.data, spec.heldout_examples,
                          spec.train_examples + spec.test_examples);
    Rng prng(seeds.partition);
    partition =
        spec.zipf_alpha > 0.0
            ? data::partition_zipf(s.train->size(), spec.platforms,
                                   spec.zipf_alpha, prng)
            : data::partition_iid(s.train->size(), spec.platforms, prng);
  }
  Scoped span(log, "core.construct");
  core::ModelBuilder builder = [&spec, log] {
    Scoped build(log, "models.build");
    return build_replica(spec);
  };
  s.trainer = std::make_unique<core::SplitTrainer>(
      builder, *s.train, std::move(partition), *s.test, std::move(cfg));
  return s;
}

// ---------------------------------------------------------------------------
// Exact outputs
// ---------------------------------------------------------------------------

struct Exact {
  std::int64_t rounds = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t messages = 0;
  double sim_clock = 0.0;
  double test_accuracy = 0.0;
  std::int64_t steps_started = 0;
  std::int64_t steps_applied = 0;
  std::int64_t examples_applied = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t goodput_bytes = 0;
  std::int64_t updates_rejected = 0;
  std::int64_t quarantines = 0;
  std::int64_t void_rounds = 0;
  std::int64_t rejoins = 0;
};

Exact collect_exact(core::SplitTrainer& t, const Spec& spec,
                    double test_accuracy) {
  Exact e;
  e.rounds = spec.rounds;
  const auto& stats = t.network().stats();
  e.total_bytes = stats.total_bytes();
  e.messages = stats.total_messages();
  e.sim_clock = t.network().clock().now();
  e.test_accuracy = test_accuracy;
  for (std::size_t k = 0; k < t.num_platforms(); ++k) {
    const core::PlatformNode& p = t.platform(k);
    e.steps_applied += p.steps_completed();
    e.steps_started += p.steps_completed() + p.aborted_steps();
    e.examples_applied += p.steps_completed() * t.minibatches()[k];
    e.updates_rejected += p.rejected_steps();
  }
  e.retransmits = stats.retransmits();
  e.duplicates = stats.duplicates();
  e.dropped = stats.dropped();
  e.corrupted = stats.corrupted();
  e.goodput_bytes = stats.goodput_bytes();
  if (const core::MembershipService* m = t.membership()) {
    e.quarantines = m->ledger().quarantines;
    e.void_rounds = m->ledger().void_rounds;
    e.rejoins = m->ledger().rejoins_warm + m->ledger().rejoins_cold;
  }
  return e;
}

/// What a fault-free run must have put on the wire: every applied step
/// moves ModelStats::split_step_bytes for its platform's minibatch.
std::uint64_t expected_fault_free_bytes(core::SplitTrainer& t,
                                        const Spec& spec) {
  models::BuiltModel replica = build_replica(spec);
  const models::ModelStats stats = models::ModelStats::analyze(replica);
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < t.num_platforms(); ++k) {
    const std::int64_t s = t.minibatches()[k];
    total += static_cast<std::uint64_t>(t.platform(k).steps_completed()) *
             stats.split_step_bytes(std::span<const std::int64_t>(&s, 1),
                                    spec.codec);
  }
  return total;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

class Json {
 public:
  Json() { os_.precision(17); }
  Json& num(const std::string& key, double v) {
    sep(key);
    if (std::isfinite(v)) {
      os_ << v;
    } else {
      os_ << "null";
    }
    return *this;
  }
  Json& integer(const std::string& key, std::int64_t v) {
    sep(key);
    os_ << v;
    return *this;
  }
  Json& str(const std::string& key, const std::string& v) {
    sep(key);
    os_ << '"' << v << '"';
    return *this;
  }
  Json& raw(const std::string& key, const std::string& v) {
    sep(key);
    os_ << v;
    return *this;
  }
  Json& list(const std::string& key, const std::vector<double>& vs) {
    sep(key);
    os_ << '[';
    for (std::size_t i = 0; i < vs.size(); ++i) {
      os_ << (i ? "," : "") << vs[i];
    }
    os_ << ']';
    return *this;
  }
  [[nodiscard]] std::string done() const { return os_.str() + "}"; }

 private:
  void sep(const std::string& key) {
    os_ << (first_ ? "{" : ",") << '"' << key << "\":";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

std::string exact_json(const Exact& e) {
  Json j;
  j.integer("rounds", e.rounds)
      .integer("total_bytes", static_cast<std::int64_t>(e.total_bytes))
      .integer("messages", static_cast<std::int64_t>(e.messages))
      .num("sim_clock", e.sim_clock)
      .num("test_accuracy", e.test_accuracy)
      .integer("steps_started", e.steps_started)
      .integer("steps_applied", e.steps_applied)
      .integer("examples_applied", e.examples_applied)
      .integer("retransmits", static_cast<std::int64_t>(e.retransmits))
      .integer("duplicates", static_cast<std::int64_t>(e.duplicates))
      .integer("dropped", static_cast<std::int64_t>(e.dropped))
      .integer("corrupted", static_cast<std::int64_t>(e.corrupted))
      .integer("goodput_bytes", static_cast<std::int64_t>(e.goodput_bytes))
      .integer("updates_rejected", e.updates_rejected)
      .integer("quarantines", e.quarantines)
      .integer("void_rounds", e.void_rounds)
      .integer("rejoins", e.rejoins);
  return j.done();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Seconds per held-out pass: the first eval_platforms composite models,
/// each over the whole held-out set, through metrics::evaluate_composite.
std::vector<double> eval_passes(const Spec& spec, Setup& s, SpanLog* log) {
  core::SplitTrainer& t = *s.trainer;
  const auto n = std::min<std::size_t>(
      static_cast<std::size_t>(spec.eval_platforms), t.num_platforms());
  std::vector<double> passes;
  for (std::int64_t pass = 0; pass < spec.eval_passes; ++pass) {
    Stopwatch sw;
    for (std::size_t k = 0; k < n; ++k) {
      Scoped span(log, "metrics.eval");
      metrics::evaluate_composite(t.platform(k).l1(), &t.server().body(),
                                  *s.heldout, spec.eval_batch);
    }
    passes.push_back(sw.seconds());
  }
  return passes;
}

std::int64_t eval_examples_per_pass(const Spec& spec, Setup& s) {
  return std::min<std::int64_t>(
             spec.eval_platforms,
             static_cast<std::int64_t>(s.trainer->num_platforms())) *
         spec.heldout_examples;
}

/// The fields every repetition's output starts with.
Json header(const Spec& spec, std::uint64_t seed, const std::string& mode) {
  Json j;
  j.str("workload", spec.name)
      .integer("seed", static_cast<std::int64_t>(seed))
      .str("mode", mode)
      .str("build_type", PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
      .integer("ndebug", 1)
#else
      .integer("ndebug", 0)
#endif
      .integer("threads", global_threads())
      .str("kernel_isa", gemm_kernel_isa());
  return j;
}

// ---------------------------------------------------------------------------
// plain: the untraced run that the end-to-end metrics come from
// ---------------------------------------------------------------------------

int run_plain(const Spec& spec, std::uint64_t seed) {
  const Seeds seeds = derive_seeds(seed);
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < spec.setups; ++i) {
    s.trainer.reset();  // before the datasets it points into, and before
                        // the next set-up is timed
    Stopwatch sw;
    s = make_setup(spec, seeds, make_config(spec, seeds), nullptr);
    setup_s.push_back(sw.seconds());
  }
  Stopwatch train_sw;
  const metrics::TrainReport report = s.trainer->run();
  const double train_s = train_sw.seconds();
  const Exact exact = collect_exact(*s.trainer, spec, report.final_accuracy);
  const std::vector<double> evals = eval_passes(spec, s, nullptr);
  const double rss = peak_rss_mb();

  Json j = header(spec, seed, "plain");
  j.list("setup_s", setup_s)
      .num("train_s", train_s)
      .list("eval_s", evals)
      .integer("eval_examples_per_pass", eval_examples_per_pass(spec, s))
      .num("peak_rss_mb", rss)
      .raw("exact", exact_json(exact));
  if (!spec.chaos) {
    j.integer("expected_fault_free_bytes",
              static_cast<std::int64_t>(
                  expected_fault_free_bytes(*s.trainer, spec)));
  }
  std::cout << j.done() << std::endl;
  return 0;
}

// ---------------------------------------------------------------------------
// traced: protocol roles, replays of the layers below them
// ---------------------------------------------------------------------------

/// Self-time span names of the five protocol roles, in step order.
const char* const kRoles[] = {"core.platform_fwd", "core.server_fwd",
                              "core.platform_loss", "core.server_bwd",
                              "core.platform_bwd"};

Envelope receive(net::Network& net, NodeId node, SpanLog* log,
                 std::uint64_t step) {
  Scoped span(log, "net.receive", step);
  return net.receive(node);
}

/// Drives `rounds` sequential rounds through the calls
/// SplitTrainer::run_platform_step makes, one span per call. Returns each
/// step's wall milliseconds.
std::vector<double> drive(core::SplitTrainer& t, std::int64_t rounds,
                          SpanLog* log) {
  net::Network& net = t.network();
  core::CentralServer& server = t.server();
  std::vector<double> step_ms;
  std::uint64_t step_id = 0;
  for (std::int64_t r = 1; r <= rounds; ++r) {
    Scoped round(log, "core.round");
    for (std::size_t k = 0; k < t.num_platforms(); ++k) {
      core::PlatformNode& p = t.platform(k);
      ++step_id;
      Stopwatch sw;
      Scoped step(log, "core.step", step_id);
      {
        Scoped role(log, kRoles[0], step_id);
        p.send_activation(net, step_id);
      }
      Envelope env = receive(net, server.id(), log, step_id);
      {
        Scoped role(log, kRoles[1], step_id);
        server.handle(net, env);
      }
      env = receive(net, p.id(), log, step_id);
      {
        Scoped role(log, kRoles[2], step_id);
        p.handle(net, env);
      }
      env = receive(net, server.id(), log, step_id);
      {
        Scoped role(log, kRoles[3], step_id);
        server.handle(net, env);
      }
      env = receive(net, p.id(), log, step_id);
      {
        Scoped role(log, kRoles[4], step_id);
        p.handle(net, env);
      }
      step_ms.push_back(sw.seconds() * 1e3);
    }
  }
  return step_ms;
}

/// Median wall seconds of `fn` over `reps` calls after one warm-up call.
double time_median(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    Stopwatch sw;
    fn();
    t.push_back(sw.seconds());
  }
  return median(t);
}

/// Per-step replay timings at one platform minibatch size.
struct StepReplay {
  std::map<std::string, double> group_fwd;  ///< "<side>.<group>" -> s/step
  std::map<std::string, double> group_bwd;
  double platform_fwd = 0.0;
  double platform_bwd = 0.0;
  double server_fwd = 0.0;
  double server_bwd = 0.0;
  double sgd = 0.0;
  double encode = 0.0;  ///< activation + cut-gradient encodes
  double decode = 0.0;
  double codec_mb = 0.0;  ///< f32 megabytes encoded per step

  /// Accumulates `steps` steps of `o`.
  void add(const StepReplay& o, double steps) {
    for (const auto& [n, v] : o.group_fwd) group_fwd[n] += steps * v;
    for (const auto& [n, v] : o.group_bwd) group_bwd[n] += steps * v;
    platform_fwd += steps * o.platform_fwd;
    platform_bwd += steps * o.platform_bwd;
    server_fwd += steps * o.server_fwd;
    server_bwd += steps * o.server_bwd;
    sgd += steps * o.sgd;
    encode += steps * o.encode;
    decode += steps * o.decode;
    codec_mb += steps * o.codec_mb;
  }
};

/// A plan-group label reduced to letters, digits and '_'.
std::string reduce_label(const std::string& label) {
  std::string out;
  for (const char c : label) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += c;
    } else if (c == '+' || c == '>') {
      if (!out.empty() && out.back() != '_') out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

/// A side split into one Sequential per plan group.
struct GroupChain {
  std::vector<std::string> names;
  std::vector<nn::Sequential> groups;
};

GroupChain split_groups(nn::Sequential side, const std::string& side_name) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::vector<std::string> labels;
  for (const nn::FusedGroup& g : side.plan().groups()) {
    ranges.emplace_back(g.begin, g.end);
    std::string label;
    for (std::size_t i = g.begin; i < g.end; ++i) {
      if (i > g.begin) label += '+';
      label += side.layer(i).name();
    }
    labels.push_back(label);
  }
  GroupChain chain;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    chain.names.push_back(side_name + ".g" + std::to_string(i) + "_" +
                          reduce_label(labels[i]));
    chain.groups.push_back(
        side.extract(0, ranges[i].second - ranges[i].first));
  }
  return chain;
}

StepReplay replay_step(const Spec& spec, std::int64_t batch, int reps) {
  StepReplay out;
  models::BuiltModel replica = build_replica(spec);
  const Shape input = replica.input_shape;
  core::SplitParts parts =
      core::split_at(std::move(replica.net), replica.default_cut);
  GroupChain sides[2] = {split_groups(std::move(parts.platform), "platform"),
                         split_groups(std::move(parts.server), "server")};
  Rng rng(99);
  std::vector<std::int64_t> dims{batch};
  dims.insert(dims.end(), input.dims().begin(), input.dims().end());
  const Tensor x = Tensor::normal(Shape(dims), rng);

  // Forward once to learn every group's input, then time each group's
  // forward and backward at those inputs.
  std::vector<Tensor> inputs;
  Tensor cut;
  {
    Tensor h = x;
    for (auto& side : sides) {
      if (&side == &sides[1]) cut = h;
      for (auto& g : side.groups) {
        inputs.push_back(h);
        h = g.forward(h, true);
      }
    }
    inputs.push_back(h);  // logits
  }
  std::vector<std::string> names;
  std::vector<nn::Sequential*> groups;
  std::vector<bool> is_platform;
  for (int s = 0; s < 2; ++s) {
    for (std::size_t i = 0; i < sides[s].groups.size(); ++i) {
      names.push_back(sides[s].names[i]);
      groups.push_back(&sides[s].groups[i]);
      is_platform.push_back(s == 0);
    }
  }
  for (std::size_t idx = 0; idx < groups.size(); ++idx) {
    nn::Sequential& g = *groups[idx];
    const Tensor& in = inputs[idx];
    const Tensor out_grad = Tensor::normal(inputs[idx + 1].shape(), rng);
    std::vector<double> fwd;
    std::vector<double> bwd;
    g.forward(in, true);
    g.backward(out_grad);  // warm-up
    for (int r = 0; r < reps; ++r) {
      Stopwatch f;
      g.forward(in, true);
      fwd.push_back(f.seconds());
      Stopwatch b;
      g.backward(out_grad);
      bwd.push_back(b.seconds());
    }
    const double fm = median(fwd);
    const double bm = median(bwd);
    out.group_fwd[names[idx]] = fm;
    out.group_bwd[names[idx]] = bm;
    (is_platform[idx] ? out.platform_fwd : out.server_fwd) += fm;
    (is_platform[idx] ? out.platform_bwd : out.server_bwd) += bm;
  }

  // Optimizer: one Sgd::step per side (gradients are populated above).
  optim::SgdOptions opt;
  opt.learning_rate = 0.02F;
  opt.momentum = 0.5F;
  for (int s = 0; s < 2; ++s) {
    std::vector<nn::Parameter*> params;
    for (auto& g : sides[s].groups) {
      for (nn::Parameter* p : g.parameters()) params.push_back(p);
    }
    if (params.empty()) continue;
    optim::Sgd sgd(params, opt);
    out.sgd += time_median(reps, [&] { sgd.step(); });
  }

  // Codec: the activation and the cut gradient share the cut's shape.
  const Tensor act = Tensor::normal(cut.shape(), rng);
  std::vector<std::uint8_t> encoded;
  const double enc = time_median(reps, [&] {
    BufferWriter w;
    encode_tensor_tagged(act, spec.codec, w);
    encoded = w.take();
  });
  const double dec = time_median(reps, [&] {
    BufferReader r(encoded);
    const TaggedTensor t = decode_tensor_tagged(r);
    (void)t;
  });
  out.encode = 2.0 * enc;
  out.decode = 2.0 * dec;
  out.codec_mb = 2.0 * static_cast<double>(act.numel()) * 4.0 / 1e6;
  return out;
}

/// GEMM shapes (m, n, k) one step issues at minibatch `batch`, by kind.
struct GemmShapes {
  std::vector<std::array<std::int64_t, 3>> nn, tn, nt;

  void add(const GemmShapes& o) {
    nn.insert(nn.end(), o.nn.begin(), o.nn.end());
    tn.insert(tn.end(), o.tn.begin(), o.tn.end());
    nt.insert(nt.end(), o.nt.begin(), o.nt.end());
  }
};

void add_conv(GemmShapes& g, std::int64_t batch, std::int64_t ic,
              std::int64_t oc, std::int64_t k, std::int64_t out_hw) {
  for (std::int64_t b = 0; b < batch; ++b) {
    g.nn.push_back({oc, out_hw, ic * k * k});  // forward
    g.tn.push_back({ic * k * k, out_hw, oc});  // input gradient
    g.nt.push_back({oc, ic * k * k, out_hw});  // weight gradient
  }
}

GemmShapes gemm_shapes(const Spec& spec, std::int64_t batch) {
  GemmShapes g;
  models::BuiltModel replica = build_replica(spec);
  std::vector<std::int64_t> dims{batch};
  dims.insert(dims.end(), replica.input_shape.dims().begin(),
              replica.input_shape.dims().end());
  const std::vector<Shape> shapes = replica.net.activation_shapes(Shape(dims));
  for (std::size_t i = 0; i < replica.net.size(); ++i) {
    const std::string name = replica.net.layer(i).name();
    const Shape& out = shapes[i + 1];
    long a = 0;
    long b = 0;
    long k = 0;
    long s = 0;
    long p = 0;
    if (std::sscanf(name.c_str(), "Linear(%ld->%ld)", &a, &b) == 2) {
      g.nt.push_back({batch, b, a});  // forward
      g.tn.push_back({b, a, batch});  // weight gradient
      g.nn.push_back({batch, a, b});  // input gradient
    } else if (std::sscanf(name.c_str(), "Conv2d(%ld->%ld, k%ld s%ld p%ld)",
                           &a, &b, &k, &s, &p) == 5) {
      add_conv(g, batch, a, b, k, out.dim(2) * out.dim(3));
    } else if (std::sscanf(name.c_str(), "ResidualBlock(%ld->%ld", &a, &b) ==
               2) {
      const std::int64_t hw = out.dim(2) * out.dim(3);
      add_conv(g, batch, a, b, 3, hw);
      add_conv(g, batch, b, b, 3, hw);
      if (name.find("proj") != std::string::npos) {
        add_conv(g, batch, a, b, 1, hw);
      }
    }
  }
  return g;
}

using GemmFn = void (*)(std::int64_t, std::int64_t, std::int64_t,
                       std::span<const float>, std::span<const float>,
                       std::span<float>);

/// GFLOP/s of one gemm kind replayed over a step's shapes, each as often as
/// the step issues it, for at least 0.15 s after a warm-up pass.
double gemm_gflops(const std::vector<std::array<std::int64_t, 3>>& shapes,
                   GemmFn fn) {
  constexpr double kBudgetS = 0.15;
  if (shapes.empty()) return 0.0;
  std::map<std::array<std::int64_t, 3>, std::int64_t> counts;
  for (const auto& s : shapes) ++counts[s];
  Rng rng(7);
  double flops = 0.0;
  double seconds = 0.0;
  int pass = 0;
  while (pass < 2 || seconds < kBudgetS) {
    for (const auto& [s, n] : counts) {
      const auto [m, nn_, k] = s;
      const Tensor a = Tensor::normal(Shape{m * k}, rng);
      const Tensor b = Tensor::normal(Shape{k * nn_}, rng);
      Tensor c(Shape{m * nn_});
      Stopwatch sw;
      for (std::int64_t i = 0; i < n; ++i) fn(m, nn_, k, a.data(), b.data(),
                                              c.data());
      const double t = sw.seconds();
      if (pass > 0) {  // the first pass warms caches and packing buffers
        seconds += t;
        flops += 2.0 * static_cast<double>(m * nn_ * k) *
                 static_cast<double>(n);
      }
    }
    ++pass;
  }
  return flops / seconds / 1e9;
}

/// Wall microseconds per frame to send and receive activation frames on a
/// K-platform hospital star with `depth` frames in flight.
double net_us_per_frame(const Spec& spec, std::int64_t batch) {
  net::Network net;
  const net::StarTopology topo = net::build_hospital_star(net, spec.platforms);
  models::BuiltModel replica = build_replica(spec);
  const models::ModelStats stats = models::ModelStats::analyze(replica);
  std::vector<std::int64_t> dims{batch};
  dims.insert(dims.end(), stats.cut_activation_chw.dims().begin(),
              stats.cut_activation_chw.dims().end());
  Rng rng(3);
  const Tensor act = Tensor::normal(Shape(dims), rng);
  const Envelope proto = core::make_tensor_envelope(
      topo.platforms[0], topo.server, core::MsgKind::kActivation, 1, act,
      spec.codec);
  const std::int64_t depth = spec.net_depth;
  const auto k = static_cast<std::int64_t>(topo.platforms.size());
  std::int64_t frames = 0;
  std::vector<double> per_batch;
  Stopwatch total;
  std::int64_t next = 0;
  while (frames < 2000 || total.seconds() < 0.1) {
    Stopwatch sw;
    for (std::int64_t i = 0; i < depth; ++i) {
      Envelope e = proto;
      e.src = topo.platforms[static_cast<std::size_t>(next++ % k)];
      net.send(std::move(e));
    }
    for (std::int64_t i = 0; i < depth; ++i) {
      const Envelope e = net.receive(topo.server);
      (void)e;
    }
    per_batch.push_back(sw.seconds() * 1e6 / static_cast<double>(depth));
    frames += depth;
  }
  return median(per_batch);
}

struct Attribution {
  Exact exact;
  std::array<double, obs::CriticalPathAnalyzer::kNumSegments> segments{};
};

/// An observability-on run() that only collects the program's per-round
/// critical-path attribution (simulated time; not timed).
Attribution attribution_pass(const Spec& spec, const Seeds& seeds) {
  core::SplitConfig cfg = make_config(spec, seeds);
  cfg.obs.enabled = true;
  Setup s = make_setup(spec, seeds, cfg, nullptr);
  const metrics::TrainReport report = s.trainer->run();
  Attribution a;
  a.exact = collect_exact(*s.trainer, spec, report.final_accuracy);
  for (const auto& rec : obs::attribution()->records()) {
    for (int i = 0; i < obs::CriticalPathAnalyzer::kNumSegments; ++i) {
      a.segments[static_cast<std::size_t>(i)] +=
          rec.segments[static_cast<std::size_t>(i)];
    }
  }
  return a;
}

/// Highest percentile with at least ten samples beyond it.
double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The traced training run: the protocol roles driven one call at a time
/// (fig4_*), or run() as a whole inside the scheduler and membership
/// drivers (fleet_k1024, chaos_k64).
struct TracedTraining {
  Exact exact;
  double train_s = 0.0;
  double final_eval_s = 0.0;  ///< the final evaluation inside train_s
  std::vector<double> step_ms;
};

TracedTraining train_traced(const Spec& spec, Setup& s, SpanLog& log) {
  core::SplitTrainer& t = *s.trainer;
  TracedTraining out;
  Stopwatch train_sw;
  {
    Scoped train(&log, "train");
    if (drives_steps(spec)) {
      out.step_ms = drive(t, spec.rounds, &log);
      Stopwatch ev;
      Scoped span(&log, "metrics.final_eval");
      const double acc = t.evaluate();
      out.final_eval_s = ev.seconds();
      out.exact = collect_exact(t, spec, acc);
    } else {
      Scoped span(&log, "core.run");
      const metrics::TrainReport report = t.run();
      out.exact = collect_exact(t, spec, report.final_accuracy);
    }
  }
  out.train_s = train_sw.seconds();
  if (!drives_steps(spec)) {
    // run()'s own final evaluation: every composite over the test set.
    out.final_eval_s =
        static_cast<double>(t.num_platforms()) * time_median(3, [&] {
          metrics::evaluate_composite(t.platform(0).l1(), &t.server().body(),
                                      *s.test, spec.eval_batch);
        });
  }
  return out;
}

/// Self seconds per step of each protocol role. fleet_k1024/chaos_k64 run
/// their steps inside private drivers, so their roles are measured on a
/// one-platform trainer the benchmark drives for 256 steps at the
/// workload's model, codec and per-platform minibatch.
std::map<std::string, double> role_seconds(const Spec& spec,
                                           const Seeds& seeds, Setup& s,
                                           const SpanLog& log,
                                           std::vector<double>& step_ms) {
  SpanLog role_log;
  const SpanLog* roles = &log;
  if (!drives_steps(spec)) {
    Spec one = spec;
    one.platforms = 1;
    one.total_batch = s.trainer->minibatches()[0];
    one.schedule = core::Schedule::kSequential;
    one.participation = 1.0;
    one.chaos = false;
    one.rounds = 256;
    Setup r = make_setup(one, seeds, make_config(one, seeds), nullptr);
    step_ms = drive(*r.trainer, one.rounds, &role_log);
    roles = &role_log;
  }
  const auto self = roles->self_by_name();
  std::map<std::string, double> out;
  for (const char* r : kRoles) {
    const auto it = self.find(r);
    out[r] = (it == self.end() ? 0.0 : it->second) /
             static_cast<double>(step_ms.size());
  }
  return out;
}

int run_traced(const Spec& spec, std::uint64_t seed,
               const std::string& spans_out) {
  const Seeds seeds = derive_seeds(seed);
  SpanLog log;
  Json layers;  // per-layer metrics, in the order they are printed
  reset_aligned_peak_bytes();
  Setup s = make_setup(spec, seeds, make_config(spec, seeds), &log);
  core::SplitTrainer& t = *s.trainer;
  TracedTraining tr = train_traced(spec, s, log);
  const Exact& exact = tr.exact;
  layers
      .num("tensor.arena_reserved_mb",
           static_cast<double>(ws::global_bytes_reserved()) / 1e6)
      .num("tensor.heap_peak_mb",
           static_cast<double>(aligned_peak_bytes()) / 1e6);
  eval_passes(spec, s, &log);

  const auto self = log.self_by_name();
  const auto total = log.total_by_name();
  const auto get = [](const std::map<std::string, double>& m,
                      const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto evaluated = std::min<std::int64_t>(
      spec.eval_platforms, static_cast<std::int64_t>(t.num_platforms()));
  layers.num("data.synth_s", get(total, "data.synth"))
      .num("models.build_s", get(total, "models.build"))
      .num("core.wire_s", get(self, "core.construct"))
      .num("metrics.eval_s_per_platform",
           get(total, "metrics.eval") /
               static_cast<double>(evaluated * spec.eval_passes));

  // Protocol roles.
  const double rounds = static_cast<double>(spec.rounds);
  const double steps_per_round =
      static_cast<double>(exact.steps_started) / rounds;
  const auto role_s = role_seconds(spec, seeds, s, log, tr.step_ms);
  double role_step_s = 0.0;
  for (const char* r : kRoles) {
    layers.num(std::string(r) + "_s_per_round",
               role_s.at(r) * steps_per_round);
    role_step_s += role_s.at(r);
  }
  const double tail_p = tail_percentile(tr.step_ms.size());
  layers
      .num("core.platform_share", (role_s.at(kRoles[0]) +
                                   role_s.at(kRoles[2]) +
                                   role_s.at(kRoles[4])) /
                                      role_step_s)
      .num("core.step_ms_p50", percentile(tr.step_ms, 50.0))
      .num("core.step_ms_tail", percentile(tr.step_ms, tail_p))
      .num("core.step_tail_percentile", tail_p)
      .num("core.step_samples", static_cast<double>(tr.step_ms.size()));

  // Layer replays at each platform's minibatch, weighted by its steps.
  std::map<std::int64_t, double> steps_by_batch;  // batch -> steps/round
  for (std::size_t k = 0; k < t.num_platforms(); ++k) {
    const core::PlatformNode& p = t.platform(k);
    steps_by_batch[t.minibatches()[k]] +=
        static_cast<double>(p.steps_completed() + p.aborted_steps()) / rounds;
  }
  constexpr int kReps = 5;
  StepReplay per_round;
  GemmShapes shapes;
  for (const auto& [batch, steps] : steps_by_batch) {
    per_round.add(replay_step(spec, batch, kReps), steps);
    shapes.add(gemm_shapes(spec, batch));
  }
  std::vector<std::int64_t> eval_dims{spec.eval_batch};
  const Shape img = s.heldout->image_shape();
  eval_dims.insert(eval_dims.end(), img.dims().begin(), img.dims().end());
  Rng rng(5);
  const Tensor eval_batch = Tensor::normal(Shape(eval_dims), rng);
  const double infer_s = time_median(kReps, [&] {
    const Tensor h = t.platform(0).l1().infer(eval_batch);
    const Tensor logits = t.server().body().infer(h);
    (void)logits;
  });
  const StepReplay& r = per_round;
  const double replayed = r.platform_fwd + r.platform_bwd + r.server_fwd +
                          r.server_bwd + r.sgd + r.encode + r.decode;
  layers.num("nn.platform.fwd_s_per_round", r.platform_fwd)
      .num("nn.platform.bwd_s_per_round", r.platform_bwd)
      .num("nn.server.fwd_s_per_round", r.server_fwd)
      .num("nn.server.bwd_s_per_round", r.server_bwd)
      .num("nn.infer_ms_per_batch", infer_s * 1e3)
      .num("optim.sgd_s_per_round", r.sgd)
      .num("serial.encode_ms_per_mb", r.encode * 1e3 / r.codec_mb)
      .num("serial.decode_ms_per_mb", r.decode * 1e3 / r.codec_mb)
      .num("serial.codec_s_per_round", r.encode + r.decode)
      .num("core.replay_coverage", replayed / (role_step_s * steps_per_round))
      .num("core.driver_s_per_round", (tr.train_s - tr.final_eval_s) / rounds -
                                          role_step_s * steps_per_round)
      .num("tensor.gemm_nn_gflops", gemm_gflops(shapes.nn, gemm_nn))
      .num("tensor.gemm_tn_gflops", gemm_gflops(shapes.tn, gemm_tn))
      .num("tensor.gemm_nt_gflops", gemm_gflops(shapes.nt, gemm_nt));

  // Network.
  layers
      .num("net.frames_per_round",
           static_cast<double>(exact.messages) / rounds)
      .num("net.send_receive_us_per_frame",
           net_us_per_frame(spec, steps_by_batch.begin()->first))
      .num("net.retransmits", static_cast<double>(exact.retransmits))
      .num("net.duplicates", static_cast<double>(exact.duplicates))
      .num("net.dropped", static_cast<double>(exact.dropped))
      .num("net.corrupted", static_cast<double>(exact.corrupted))
      .num("net.goodput_share", static_cast<double>(exact.goodput_bytes) /
                                    static_cast<double>(exact.total_bytes));

  // Simulated time, from the program's per-round attribution.
  const Attribution attr = attribution_pass(spec, seeds);
  using CP = obs::CriticalPathAnalyzer;
  const auto seg = [&](int i) {
    return attr.segments[static_cast<std::size_t>(i)] / rounds;
  };
  layers.num("net.uplink_sim_s_per_round", seg(CP::kUplink))
      .num("net.downlink_sim_s_per_round", seg(CP::kDownlink))
      .num("net.retransmit_sim_s_per_round", seg(CP::kRetransmit))
      .num("core.platform_compute_sim_s_per_round", seg(CP::kPlatformCompute))
      .num("core.server_queue_sim_s_per_round", seg(CP::kServerQueue))
      .num("core.server_compute_sim_s_per_round", seg(CP::kServerCompute))
      .num("core.deadline_slack_sim_s_per_round", seg(CP::kDeadlineSlack));

  // Counts.
  layers.num("core.steps_started", static_cast<double>(exact.steps_started))
      .num("core.steps_applied", static_cast<double>(exact.steps_applied))
      .num("core.updates_rejected", static_cast<double>(exact.updates_rejected))
      .num("core.quarantines", static_cast<double>(exact.quarantines))
      .num("core.void_rounds", static_cast<double>(exact.void_rounds))
      .num("core.rejoins", static_cast<double>(exact.rejoins));

  if (!spans_out.empty()) log.write_jsonl(spans_out);

  // Per-plan-group replay times; their names vary by model, so they stay
  // out of the fixed metric list.
  Json groups;
  for (const auto& [name, v] : r.group_fwd) {
    groups.num(name + ".fwd_s_per_round", v)
        .num(name + ".bwd_s_per_round", r.group_bwd.at(name));
  }
  Json j = header(spec, seed, "traced");
  j.num("train_s", tr.train_s)
      .raw("exact", exact_json(exact))
      .raw("attribution_exact", exact_json(attr.exact))
      .raw("layers", layers.done())
      .raw("nn_groups", groups.done());
  std::cout << j.done() << std::endl;
  return 0;
}

int usage(const char* why) {
  std::cerr << "perfbench_workload: " << why
            << "\nusage: perfbench_workload --workload NAME --seed N "
               "--mode plain|traced [--spans-out FILE]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string mode = "plain";
  std::string spans_out;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return usage("--seed takes an integer");
    } else if (a == "--mode") {
      mode = v;
    } else if (a == "--spans-out") {
      spans_out = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  for (const Spec& spec : all_specs()) {
    if (spec.name != workload) continue;
    try {
      if (mode == "plain") return run_plain(spec, seed);
      if (mode == "traced") return run_traced(spec, seed, spans_out);
      return usage(("unknown mode " + mode).c_str());
    } catch (const std::exception& e) {
      std::cerr << "perfbench_workload: " << workload << " failed: "
                << e.what() << "\n";
      return 3;
    }
  }
  return usage(("unknown workload '" + workload + "'").c_str());
}
