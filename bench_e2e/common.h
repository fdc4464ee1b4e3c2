// Shared pieces of the end-to-end benchmark: run options, what a workload
// hands back, the metric tables the result line is printed from, and
// small statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scol/api/json.h"
#include "trace.h"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;  ///< inputs, trace files and count records
  std::string serve_bin;  ///< the scol-serve binary
};

/// What one workload run reports back to main().
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages

  /// End-to-end metrics by name (trace 0), per-layer metrics (trace 1).
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  /// Deterministic counts that must repeat exactly for one seed.
  std::map<std::string, std::int64_t> counts;

  /// Instance record: sizes of the generated inputs.
  scol::Json instance = scol::Json::object();

  /// Wall time of each operation, in seconds (also kept in traced runs,
  /// for the tracing-overhead figure of the trace summary).
  std::vector<double> op_seconds;

  void fail(const std::string& message) {
    ++failed;
    if (errors.size() < 8) errors.push_back(message);
  }
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, printed by every workload's untraced run.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Every per-layer metric, printed by every workload's traced run; a layer
/// the workload does not pass through reads 0.
const std::vector<MetricSpec>& per_layer_metrics();

void run_batch(const Options& options, Tracer& tracer, Outcome& out);
void run_serve_mix(const Options& options, Tracer& tracer, Outcome& out);

// --- statistics ---

/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Peak resident set of this process (self) or of its waited-for children,
/// in MB.
double peak_rss_mb(bool children);

}  // namespace e2e
