// In-memory span recorder of the end-to-end benchmark.
//
// Spans are taken in the benchmark's own files, around each call into a
// layer's public function ("io.read" around read_graph_file, "solve.gps"
// around scol::solve, ...). A span has a name, a start and an end on
// steady_clock, the index of the span that was open when it began (its
// parent), and an operation id shared by every span of one operation. Spans
// stay in memory; write_chrome_trace() writes them when the run ends as
// Chrome trace-event JSON, which Perfetto and chrome://tracing open.
//
// With tracing off, begin()/end() return at the first branch and nothing is
// recorded; the untraced run takes its end-to-end numbers from its own
// stopwatches.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scol/api/json.h"

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  int op = -1;      ///< operation id (-1: set-up and harness work)
  int tid = 0;      ///< trace lane: 0 = the benchmark's thread
  scol::Json args;  ///< null or an object of extra fields

  double ms() const { return ms_between(start_ns, end_ns); }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Operation id given to spans begun from now on.
  void set_op(int op) { op_ = op; }

  /// Opens a nested span; returns its index (-1 when tracing is off).
  int begin(std::string name) {
    if (!enabled_) return -1;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_ns(), 0, parent(), op_, 0, {}});
    stack_.push_back(idx);
    return idx;
  }

  void end(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Records a span timed elsewhere (a forked set-up step, one request on
  /// the wire) under span `parent` (an index begin() returned).
  void add(int parent, std::string name, std::int64_t start_ns,
           std::int64_t end_ns, int tid = 0, scol::Json args = {}) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), start_ns, end_ns, parent, op_, tid,
                      std::move(args)});
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes every span as a Chrome trace-event "X" event; `metadata` goes
  /// under the top-level "metadata" key.
  void write_chrome_trace(const std::string& path,
                          const scol::Json& metadata) const;

 private:
  int parent() const { return stack_.empty() ? -1 : stack_.back(); }

  bool enabled_;
  int op_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span: begins on construction, ends on destruction.
class Span {
 public:
  Span(Tracer& tracer, std::string name)
      : tracer_(tracer), idx_(tracer.begin(std::move(name))) {}
  ~Span() { tracer_.end(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int idx_;
};

}  // namespace e2e
