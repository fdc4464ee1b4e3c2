// Shared bench baseline writer: the `--baseline-out` mode of bench_perf,
// bench_campaign, bench_io, and bench_main_scaling.
//
// A baseline file (BENCH_*.json at the repo root) pins a bench's series
// medians per MACHINE CLASS — "<arch>-<cores>c-<build>", e.g.
// "x86_64-8c-release" — so numbers from different hardware or build types
// never get compared to each other. tools/bench_compare.py consumes these
// files: it diffs a fresh run against the checked-in class, fails on
// median regressions past the threshold, and refreshes the baseline on
// improvement (docs/BENCHMARKS.md is the operating manual).
//
// Schema ("scol-bench-baseline/v1"):
//   {
//     "schema": "scol-bench-baseline/v1",
//     "bench": "bench_io",
//     "machine_classes": {
//       "x86_64-8c-release": {
//         "arch": "x86_64", "cores": 8, "build": "release",
//         "series": {
//           "parse/dimacs/MBps": {"value": 245.1, "unit": "MB/s",
//                                  "higher_is_better": true, "reps": 3}
//         }
//       }
//     }
//   }
//
// One program writes exactly one machine class (its own); the comparator's
// `merge` mode folds runs from several benches/machines into one file.
#pragma once

#include <algorithm>
#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "scol/api/json.h"
#include "scol/util/check.h"
#include "scol/util/file.h"

namespace scol::bench {

inline std::string arch_name() {
#if defined(__x86_64__) || defined(_M_X64)
  return "x86_64";
#elif defined(__aarch64__) || defined(_M_ARM64)
  return "arm64";
#else
  return "unknown";
#endif
}

inline std::string build_type() {
#if defined(SCOL_BUILD_TYPE)
  std::string b = SCOL_BUILD_TYPE;
#elif defined(NDEBUG)
  std::string b = "Release";
#else
  std::string b = "Debug";
#endif
  std::transform(b.begin(), b.end(), b.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return b.empty() ? "unknown" : b;
}

inline int core_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// The key baselines are pinned under: "<arch>-<cores>c-<build>".
inline std::string machine_class() {
  return arch_name() + "-" + std::to_string(core_count()) + "c-" +
         build_type();
}

/// Median of a sample (by value; the callers keep their raw reps).
inline double median(std::vector<double> v) {
  SCOL_REQUIRE(!v.empty(), + "median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Collects (series -> median value) rows and writes the baseline JSON.
class BaselineWriter {
 public:
  explicit BaselineWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Adds one series. `higher_is_better` tells the comparator which
  /// direction is a regression (false for times, true for throughput).
  void add(const std::string& series, double value, const std::string& unit,
           bool higher_is_better, int reps) {
    rows_.push_back({series, unit, value, higher_is_better, reps});
  }

  /// Median-of-reps convenience: records median(samples).
  void add_median(const std::string& series, std::vector<double> samples,
                  const std::string& unit, bool higher_is_better) {
    const int reps = static_cast<int>(samples.size());
    add(series, median(std::move(samples)), unit, higher_is_better, reps);
  }

  std::size_t size() const { return rows_.size(); }

  Json to_baseline_json() const {
    Json series = Json::object();
    for (const auto& r : rows_) {
      Json entry = Json::object();
      entry.set("value", Json::real(r.value));
      entry.set("unit", Json::str(r.unit));
      entry.set("higher_is_better", Json::boolean(r.higher_is_better));
      entry.set("reps", Json::integer(r.reps));
      series.set(r.name, std::move(entry));
    }
    Json cls = Json::object();
    cls.set("arch", Json::str(arch_name()));
    cls.set("cores", Json::integer(core_count()));
    cls.set("build", Json::str(build_type()));
    cls.set("series", std::move(series));
    Json classes = Json::object();
    classes.set(machine_class(), std::move(cls));
    Json out = Json::object();
    out.set("schema", Json::str("scol-bench-baseline/v1"));
    out.set("bench", Json::str(bench_name_));
    out.set("machine_classes", std::move(classes));
    return out;
  }

  /// Writes the baseline file (pretty JSON — these are reviewed in PRs).
  /// Returns false if the file cannot be written; a failed write leaves
  /// no partial file and any previous baseline at `path` untouched.
  bool write(const std::string& path) const {
    try {
      write_file_atomically(path, [&](std::ostream& out) {
        out << to_baseline_json().dump(2) << "\n";
      });
      return true;
    } catch (const FileWriteError&) {
      return false;
    }
  }

 private:
  struct Row {
    std::string name;
    std::string unit;
    double value = 0.0;
    bool higher_is_better = false;
    int reps = 1;
  };
  std::string bench_name_;
  std::vector<Row> rows_;
};

/// Extracts `--flag=value` from argv (removing it) and returns the value,
/// or empty if absent. Lets the reporting benches keep their positional
/// args while gaining baseline flags.
inline std::string take_flag(int& argc, char** argv,
                             const std::string& flag) {
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      return arg.substr(prefix.size());
    }
  }
  return "";
}

}  // namespace scol::bench
