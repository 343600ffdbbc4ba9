// Benchmark-side tracing: spans recorded around every call into a layer's
// public functions, and an obs::EventSink that counts what the explorer
// reports from inside solve().
//
// Spans live in memory for the whole run and are written out once, at the
// end, as a Chrome trace (chrome://tracing, Perfetto).  A null Spans
// pointer turns every SpanScope into a no-op, which is how untraced passes
// run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/sink.hpp"

namespace dsebench {

/// Monotonic clock reading in seconds; every benchmark timing uses it.
inline double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the Spans epoch
  double end = 0.0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::uint32_t run = 0;     ///< pass (or setup round) the span belongs to
};

class Spans {
 public:
  Spans() : epoch_(std::chrono::steady_clock::now()) {}

  /// Open a span under the innermost open one; returns its index.
  std::size_t open(std::string name, std::uint32_t run);
  void close(std::size_t index);

  /// Summed self time per span name: duration minus the time covered by
  /// direct children.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Write the spans as Chrome trace events; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; does nothing when `spans` is null.
class SpanScope {
 public:
  SpanScope(Spans* spans, std::string name, std::uint32_t run)
      : spans_(spans), index_(spans != nullptr ? spans->open(std::move(name), run) : 0) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  SpanScope(SpanScope&&) = delete;
  SpanScope& operator=(SpanScope&&) = delete;

 private:
  Spans* spans_;
  std::size_t index_;
};

/// What one explorer call reported through CommonOptions::sink.
struct SinkCounts {
  double solve_seconds = 0.0;  ///< summed SolveStart -> SolveEnd, all workers
  std::uint64_t solves = 0;    ///< completed solve() calls
  std::uint64_t evictions = 0; ///< points evicted on archive inserts
  std::uint64_t dropped = 0;   ///< events lost to ring overflow
};

/// Counts solve() spans and archive evictions per explorer call.  The
/// collector serializes every callback, so no locking is needed.
class CountingSink final : public aspmt::obs::EventSink {
 public:
  void on_event(const aspmt::obs::Event& event) override;
  void on_drop(std::uint64_t dropped) override { counts_.dropped += dropped; }

  [[nodiscard]] const SinkCounts& counts() const noexcept { return counts_; }

 private:
  std::map<std::uint16_t, std::uint64_t> open_solve_ns_;  ///< per worker
  SinkCounts counts_;
};

}  // namespace dsebench
