#include "src/core/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <optional>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/logging.hpp"
#include "src/core/trainer.hpp"
#include "src/serial/section_file.hpp"
#include "src/serial/state_codec.hpp"

namespace splitmed::core {

namespace fs = std::filesystem;

namespace {

// Format 2 added the wire codec byte to the "run" section (resume must be
// bitwise-faithful per codec, so the codec is part of the saved config).
// Format 3 added the platform roster (per-platform shard sizes) and the
// membership flag to the "run" section, plus a "membership" manifest section
// when the membership extension is on — resume refuses a roster or
// membership-mode mismatch.
constexpr std::uint32_t kManifestFormat = 3;

void require_exhausted(const BufferReader& r, const std::string& what) {
  if (!r.exhausted()) {
    throw SerializationError(what + ": trailing bytes (" +
                             std::to_string(r.remaining()) + " unread)");
  }
}

void encode_report(const metrics::TrainReport& report, BufferWriter& w) {
  w.write_string(report.protocol);
  w.write_string(report.model);
  w.write_u32(static_cast<std::uint32_t>(report.curve.size()));
  for (const auto& p : report.curve) {
    w.write_i64(p.step);
    w.write_f64(p.epoch);
    w.write_u64(p.cumulative_bytes);
    w.write_f64(p.sim_seconds);
    w.write_f64(p.train_loss);
    w.write_f64(p.test_accuracy);
  }
  w.write_i64(report.steps_completed);
  w.write_f64(report.final_accuracy);
}

metrics::TrainReport decode_report(BufferReader& r) {
  metrics::TrainReport report;
  report.protocol = r.read_string();
  report.model = r.read_string();
  const std::uint32_t points = r.read_u32();
  // Six 8-byte fields per point: a count the section cannot hold would
  // otherwise size the reserve below (0xFFFFFFFF points is 206 GB).
  constexpr std::size_t kPointBytes = 48;
  if (points > r.remaining() / kPointBytes) {
    throw SerializationError("checkpoint manifest 'report' section: " +
                             std::to_string(points) + " curve points in " +
                             std::to_string(r.remaining()) + " bytes");
  }
  report.curve.reserve(points);
  for (std::uint32_t i = 0; i < points; ++i) {
    metrics::CurvePoint p;
    p.step = r.read_i64();
    p.epoch = r.read_f64();
    p.cumulative_bytes = r.read_u64();
    p.sim_seconds = r.read_f64();
    p.train_loss = r.read_f64();
    p.test_accuracy = r.read_f64();
    report.curve.push_back(p);
  }
  report.steps_completed = r.read_i64();
  report.final_accuracy = r.read_f64();
  return report;
}

/// Node-file "meta" section: role byte, optional platform index, round
/// stamp, seed. The round stamp is the handshake that refuses
/// mismatched-round peers.
enum class NodeRole : std::uint8_t { kServer = 0, kPlatform = 1 };

void write_node_meta(BufferWriter& w, NodeRole role, std::uint32_t index,
                     std::uint64_t round, std::uint64_t seed) {
  w.write_u8(static_cast<std::uint8_t>(role));
  w.write_u32(index);
  w.write_u64(round);
  w.write_u64(seed);
}

void check_node_meta(const SectionFileReader& file, const std::string& path,
                     NodeRole role, std::uint32_t index,
                     std::uint64_t manifest_round, std::uint64_t seed) {
  BufferReader meta = file.reader("meta");
  const std::uint8_t got_role = meta.read_u8();
  if (got_role != static_cast<std::uint8_t>(role)) {
    throw SerializationError("checkpoint '" + path + "': wrong node role " +
                             std::to_string(got_role));
  }
  const std::uint32_t got_index = meta.read_u32();
  if (got_index != index) {
    throw SerializationError("checkpoint '" + path + "': platform index " +
                             std::to_string(got_index) + ", expected " +
                             std::to_string(index));
  }
  const std::uint64_t got_round = meta.read_u64();
  if (got_round != manifest_round) {
    // The round-stamped handshake: a node file from a different round must
    // never be combined with this manifest's peers.
    throw ProtocolError("checkpoint '" + path + "': node state is from round " +
                        std::to_string(got_round) + " but the manifest says " +
                        std::to_string(manifest_round) +
                        " — refusing a mismatched-round peer");
  }
  const std::uint64_t got_seed = meta.read_u64();
  if (got_seed != seed) {
    throw SerializationError("checkpoint '" + path + "': seed " +
                             std::to_string(got_seed) +
                             " does not match the run seed " +
                             std::to_string(seed));
  }
  require_exhausted(meta, "checkpoint '" + path + "' meta");
}

}  // namespace

std::string checkpoint_round_dirname(std::uint64_t round) {
  std::ostringstream os;
  os << "round_" << std::setw(6) << std::setfill('0') << round;
  return os.str();
}

std::string checkpoint_platform_filename(std::size_t index) {
  return "platform_" + std::to_string(index) + ".smckpt";
}

std::optional<std::string> find_resumable_checkpoint(const std::string& dir) {
  if (!fs::is_directory(dir)) return std::nullopt;
  // Collect (round, path), newest first.
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("round_", 0) != 0) continue;
    const std::string digits = name.substr(6);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    candidates.emplace_back(std::stoull(digits), entry.path().string());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [round, path] : candidates) {
    const std::string manifest =
        (fs::path(path) / kManifestFile).string();
    if (!fs::exists(manifest)) continue;  // torn save: manifest never landed
    try {
      const SectionFileReader file = SectionFileReader::read_file(manifest);
      if (file.has("run") && file.has("network") && file.has("report")) {
        return path;
      }
    } catch (const Error&) {
      // Corrupt or truncated manifest — fall through to an older round.
      SPLITMED_LOG(kWarn) << "skipping unreadable checkpoint manifest '"
                          << manifest << "'";
    }
  }
  return std::nullopt;
}

std::string resolve_resume_dir(const std::string& path) {
  if (fs::exists(fs::path(path) / kManifestFile)) return path;
  const auto found = find_resumable_checkpoint(path);
  if (!found) {
    throw Error("no resumable checkpoint found at '" + path +
                "' (neither a round directory nor a parent of one)");
  }
  return *found;
}

void SplitTrainer::save_checkpoint(const std::string& dir,
                                   std::uint64_t round) {
  const fs::path round_dir = fs::path(dir) / checkpoint_round_dirname(round);
  fs::create_directories(round_dir);

  // Node files first; the manifest last, so a crash anywhere in this
  // function leaves a directory find_resumable_checkpoint() skips.
  {
    SectionFileWriter file;
    BufferWriter meta;
    write_node_meta(meta, NodeRole::kServer, 0, round, config_.seed);
    file.add("meta", std::move(meta));
    BufferWriter state;
    server_->save_state(state);
    file.add("state", std::move(state));
    file.write_file((round_dir / kServerFile).string());
  }
  for (std::size_t k = 0; k < platforms_.size(); ++k) {
    SectionFileWriter file;
    BufferWriter meta;
    write_node_meta(meta, NodeRole::kPlatform, static_cast<std::uint32_t>(k),
                    round, config_.seed);
    file.add("meta", std::move(meta));
    BufferWriter state;
    platforms_[k]->save_state(state);
    file.add("state", std::move(state));
    BufferWriter rng;
    encode_rng(*replica_rngs_[k], rng);
    file.add("rng", std::move(rng));
    file.write_file((round_dir / checkpoint_platform_filename(k)).string());
  }
  {
    SectionFileWriter file;
    BufferWriter run;
    run.write_u32(kManifestFormat);
    run.write_u64(round);
    run.write_u64(step_id_);
    run.write_u64(config_.seed);
    run.write_u32(static_cast<std::uint32_t>(platforms_.size()));
    // The roster: each platform's shard size. Platform count alone cannot
    // tell two different partitions of the same dataset apart, and resuming
    // under a re-shuffled roster would silently feed every hospital someone
    // else's loader state.
    for (const auto& p : platforms_) run.write_i64(p->shard_size());
    run.write_string(model_name_);
    run.write_u8(static_cast<std::uint8_t>(config_.codec));
    run.write_u8(membership_ ? 1 : 0);
    run.write_i64(examples_processed_);
    run.write_i64(skipped_steps_);
    encode_rng(participation_rng_, run);
    file.add("run", std::move(run));
    if (membership_) {
      BufferWriter membership;
      membership_->save_state(membership);
      file.add("membership", std::move(membership));
    }
    BufferWriter network;
    network_.save_state(network);
    file.add("network", std::move(network));
    BufferWriter report;
    encode_report(report_, report);
    file.add("report", std::move(report));
    file.write_file((round_dir / kManifestFile).string());
  }
}

void SplitTrainer::load_checkpoint(const std::string& round_dir) {
  const fs::path base(round_dir);
  const SectionFileReader manifest =
      SectionFileReader::read_file((base / kManifestFile).string());

  BufferReader run = manifest.reader("run");
  const std::uint32_t format = run.read_u32();
  if (format != kManifestFormat) {
    throw SerializationError("checkpoint manifest: unsupported format " +
                             std::to_string(format));
  }
  const std::uint64_t round = run.read_u64();
  const std::uint64_t step_id = run.read_u64();
  const std::uint64_t seed = run.read_u64();
  if (seed != config_.seed) {
    throw SerializationError(
        "checkpoint manifest: run seed " + std::to_string(seed) +
        " does not match the configured seed " + std::to_string(config_.seed));
  }
  const std::uint32_t num_platforms = run.read_u32();
  if (num_platforms != platforms_.size()) {
    throw SerializationError("checkpoint manifest: " +
                             std::to_string(num_platforms) +
                             " platforms, this run has " +
                             std::to_string(platforms_.size()));
  }
  for (std::size_t k = 0; k < platforms_.size(); ++k) {
    const std::int64_t saved_shard = run.read_i64();
    const std::int64_t this_shard = platforms_[k]->shard_size();
    if (saved_shard != this_shard) {
      throw SerializationError(
          "checkpoint manifest: platform " + std::to_string(k) +
          " was saved with a shard of " + std::to_string(saved_shard) +
          " example(s) but this run partitions it " +
          std::to_string(this_shard) +
          " — refusing to resume under a different roster");
    }
  }
  const std::string model = run.read_string();
  if (model != model_name_) {
    throw SerializationError("checkpoint manifest: model '" + model +
                             "' does not match this run's model '" +
                             model_name_ + "'");
  }
  const std::uint8_t codec = run.read_u8();
  if (codec >= kWireCodecCount) {
    throw SerializationError("checkpoint manifest: unknown wire codec tag " +
                             std::to_string(codec));
  }
  if (static_cast<WireCodec>(codec) != config_.codec) {
    throw SerializationError(
        std::string("checkpoint manifest: saved under wire codec ") +
        wire_codec_name(static_cast<WireCodec>(codec)) +
        ", this run is configured for " + wire_codec_name(config_.codec));
  }
  const std::uint8_t saved_membership = run.read_u8();
  if (saved_membership > 1) {
    throw SerializationError(
        "checkpoint manifest: membership flag must be 0 or 1, got " +
        std::to_string(saved_membership));
  }
  if ((saved_membership == 1) != (membership_ != nullptr)) {
    throw SerializationError(
        std::string("checkpoint manifest: saved with membership ") +
        (saved_membership ? "enabled" : "disabled") + ", this run has it " +
        (membership_ ? "enabled" : "disabled"));
  }
  const std::int64_t examples_processed = run.read_i64();
  const std::int64_t skipped_steps = run.read_i64();
  if (examples_processed < 0 || skipped_steps < 0) {
    throw SerializationError("checkpoint manifest: negative progress counter");
  }
  Rng participation_rng = participation_rng_;
  decode_rng(run, participation_rng);
  require_exhausted(run, "checkpoint manifest 'run' section");

  // Node files: validate every meta stamp against the manifest round before
  // applying any state, so a refused peer leaves the trainer untouched.
  const std::string server_path = (base / kServerFile).string();
  const SectionFileReader server_file =
      SectionFileReader::read_file(server_path);
  check_node_meta(server_file, server_path, NodeRole::kServer, 0, round, seed);
  std::vector<SectionFileReader> platform_files;
  platform_files.reserve(platforms_.size());
  for (std::size_t k = 0; k < platforms_.size(); ++k) {
    const std::string path =
        (base / checkpoint_platform_filename(k)).string();
    platform_files.push_back(SectionFileReader::read_file(path));
    check_node_meta(platform_files.back(), path, NodeRole::kPlatform,
                    static_cast<std::uint32_t>(k), round, seed);
  }

  BufferReader report_reader = manifest.reader("report");
  metrics::TrainReport report = decode_report(report_reader);
  require_exhausted(report_reader, "checkpoint manifest 'report' section");

  // The nodes write as they read, so the apply phase is all or nothing:
  // everything it touches is kept first (the nodes through their own
  // save_state) and put back if any section fails to apply, so a refused
  // load leaves the trainer untouched.
  const net::Network network_before = network_;
  const metrics::TrainReport report_before = report_;
  std::optional<MembershipService> membership_before;
  if (membership_) membership_before = *membership_;
  BufferWriter nodes_before;
  server_->save_state(nodes_before);
  std::vector<Rng> rngs_before;
  for (std::size_t k = 0; k < platforms_.size(); ++k) {
    platforms_[k]->save_state(nodes_before);
    rngs_before.push_back(*replica_rngs_[k]);
  }
  try {
    BufferReader network = manifest.reader("network");
    network_.load_state(network);
    require_exhausted(network, "checkpoint manifest 'network' section");
    report_ = std::move(report);
    if (membership_) {
      if (!manifest.has("membership")) {
        throw SerializationError(
            "checkpoint manifest: membership is enabled but the manifest has "
            "no 'membership' section");
      }
      BufferReader membership = manifest.reader("membership");
      membership_->load_state(membership);
      require_exhausted(membership,
                        "checkpoint manifest 'membership' section");
    }

    {
      BufferReader state = server_file.reader("state");
      server_->load_state(state);
      require_exhausted(state, "server checkpoint 'state' section");
    }
    for (std::size_t k = 0; k < platforms_.size(); ++k) {
      BufferReader state = platform_files[k].reader("state");
      platforms_[k]->load_state(state);
      require_exhausted(state,
                        "platform " + std::to_string(k) + " 'state' section");
      BufferReader rng = platform_files[k].reader("rng");
      decode_rng(rng, *replica_rngs_[k]);
      require_exhausted(rng,
                        "platform " + std::to_string(k) + " 'rng' section");
    }
  } catch (...) {
    network_ = network_before;
    report_ = report_before;
    if (membership_) *membership_ = *membership_before;
    const std::vector<std::uint8_t> saved = nodes_before.take();
    BufferReader nodes(saved);
    server_->load_state(nodes);
    for (std::size_t k = 0; k < platforms_.size(); ++k) {
      platforms_[k]->load_state(nodes);
      *replica_rngs_[k] = rngs_before[k];
    }
    throw;
  }

  participation_rng_ = participation_rng;
  examples_processed_ = examples_processed;
  skipped_steps_ = skipped_steps;
  step_id_ = step_id;
  next_round_ = round + 1;
  SPLITMED_LOG(kInfo) << "resumed from checkpoint '" << round_dir
                      << "' (round " << round << ", step " << step_id << ")";
}

}  // namespace splitmed::core
