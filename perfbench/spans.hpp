// In-memory span log for the traced benchmark run.
//
// The benchmark wraps each of its own calls into a module's public API in a
// span (name, start, end, parent, protocol step id). Spans stay in memory
// and are written out once, when the run ends. A span's self time is its
// duration minus the durations of its direct children; spans nest strictly
// because the benchmark is single-threaded.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds since the log was created
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 at top level
  std::uint64_t step = 0;  ///< protocol step id; 0 outside a step
  double children = 0.0;   ///< summed duration of direct children
  [[nodiscard]] double duration() const { return end - start; }
  [[nodiscard]] double self() const { return duration() - children; }
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name, std::uint64_t step = 0) {
    SpanRecord r;
    r.name = std::move(name);
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.step = step;
    r.start = now();
    spans_.push_back(std::move(r));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  /// Closes the innermost open span (which must be `id`).
  void close(int id) {
    SpanRecord& r = spans_[static_cast<std::size_t>(id)];
    r.end = now();
    stack_.pop_back();
    if (r.parent >= 0) {
      spans_[static_cast<std::size_t>(r.parent)].children += r.duration();
    }
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }

  /// Summed self time per span name.
  [[nodiscard]] std::map<std::string, double> self_by_name() const {
    std::map<std::string, double> out;
    for (const SpanRecord& r : spans_) out[r.name] += r.self();
    return out;
  }

  /// Summed duration per span name.
  [[nodiscard]] std::map<std::string, double> total_by_name() const {
    std::map<std::string, double> out;
    for (const SpanRecord& r : spans_) out[r.name] += r.duration();
    return out;
  }

  /// One JSON object per span, in open order.
  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    out.precision(9);
    for (const SpanRecord& r : spans_) {
      out << "{\"name\":\"" << r.name << "\",\"start_s\":" << r.start
          << ",\"end_s\":" << r.end << ",\"parent\":" << r.parent
          << ",\"step\":" << r.step << ",\"self_s\":" << r.self() << "}\n";
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log makes it a no-op (the untraced run).
class Scoped {
 public:
  Scoped(SpanLog* log, std::string name, std::uint64_t step = 0)
      : log_(log), id_(log ? log->open(std::move(name), step) : -1) {}
  ~Scoped() {
    if (log_) log_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
