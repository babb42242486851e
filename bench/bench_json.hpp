// Shared JSON emission for every bench binary that writes a BENCH_*.json
// perf snapshot, so the committed snapshots all parse the same way (and
// scripts/check_perf_regression.py only needs one dialect).
//
// Two layers:
//   * JsonFields / write_json — one flat row type (an ordered list of typed
//     key → value fields), one console printer for any row, and one writer
//     for an ordered list of named row arrays. Structured emitters
//     (bench_system) build every row from these.
//   * run_benchmarks_to_json — drop-in BENCHMARK_MAIN() replacement for the
//     google-benchmark binaries (bench_bigint, bench_paillier,
//     bench_comparison_baseline):
//       int main(int argc, char** argv) {
//         return pisa::benchjson::run_benchmarks_to_json(argc, argv, "BENCH_x.json");
//       }
//     The binary then accepts every --benchmark_* flag plus `--quick`, which
//     caps per-benchmark measurement time for CI perf-smoke runs.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

// Snapshot attribution: every snapshot records which source revision and
// compiler flags produced it, so numbers stay comparable across PRs. The
// revision comes from the header bench/git_rev.cmake writes at build time,
// the build type and flags from bench/CMakeLists.txt.
#if __has_include("pisa_git_rev.h")
#include "pisa_git_rev.h"
#endif
#ifndef PISA_GIT_REV
#define PISA_GIT_REV "unknown"
#endif
#ifndef PISA_BENCH_BUILD_TYPE
#define PISA_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PISA_BENCH_FLAGS
#define PISA_BENCH_FLAGS ""
#endif

namespace pisa::benchjson {

/// One flat JSON row: an ordered key → value list. All the BENCH_*.json
/// rows are flat objects of scalars, which is all this needs to support.
/// Values keep their type, so comparisons can read a row back with num():
/// integers (bool included, as 0/1) print as integers, doubles as %.3f,
/// strings quoted.
class JsonFields {
 public:
  using Value = std::variant<long long, std::size_t, double, std::string>;

  template <std::integral T>
  JsonFields& add(std::string key, T v) {
    if constexpr (std::is_signed_v<T>)
      kv_.emplace_back(std::move(key), static_cast<long long>(v));
    else
      kv_.emplace_back(std::move(key), static_cast<std::size_t>(v));
    return *this;
  }
  JsonFields& add(std::string key, double v) {
    kv_.emplace_back(std::move(key), v);
    return *this;
  }
  JsonFields& add(std::string key, std::string v) {
    kv_.emplace_back(std::move(key), std::move(v));
    return *this;
  }

  /// The numeric field `key` as a double; 0 when absent or a string.
  double num(std::string_view key) const {
    for (const auto& [k, v] : kv_) {
      if (k != key) continue;
      if (const auto* d = std::get_if<double>(&v)) return *d;
      if (const auto* i = std::get_if<long long>(&v)) return static_cast<double>(*i);
      if (const auto* u = std::get_if<std::size_t>(&v)) return static_cast<double>(*u);
    }
    return 0;
  }
  bool has(std::string_view key) const {
    return std::any_of(kv_.begin(), kv_.end(),
                       [&](const auto& kv) { return kv.first == key; });
  }

  void emit(std::FILE* f, const char* indent) const {
    std::fprintf(f, "%s{", indent);
    for (std::size_t i = 0; i < kv_.size(); ++i)
      std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ", kv_[i].first.c_str(),
                   text(kv_[i].second, true).c_str());
    std::fprintf(f, "}");
  }

  /// Console form of the row: `key=value` pairs, wrapped near 100 columns
  /// with the continuation lines indented.
  void print(std::FILE* f = stdout) const {
    std::size_t col = 0;
    const char* lead = "  %s";
    for (const auto& [k, v] : kv_) {
      std::string item = k + "=" + text(v, false);
      if (col > 0 && col + item.size() + 1 > 100) {
        std::fprintf(f, "\n");
        col = 0;
        lead = "      %s";
      }
      col += static_cast<std::size_t>(
          std::fprintf(f, col == 0 ? lead : " %s", item.c_str()));
    }
    std::fprintf(f, "\n");
  }

 private:
  static std::string text(const Value& v, bool quote) {
    if (const auto* s = std::get_if<std::string>(&v))
      return quote ? "\"" + *s + "\"" : *s;
    if (const auto* i = std::get_if<long long>(&v)) return std::to_string(*i);
    if (const auto* u = std::get_if<std::size_t>(&v)) return std::to_string(*u);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", std::get<double>(v));
    return buf;
  }

  std::vector<std::pair<std::string, Value>> kv_;
};

/// One named array of rows in a snapshot, e.g. {"scaling", rows}.
using Section = std::pair<std::string, std::vector<JsonFields>>;

/// Writes the snapshot: the attribution header every BENCH_*.json carries
/// (measurement mode, source revision — "-dirty" when measured on
/// uncommitted changes — build type and flags, hardware threads), then
/// each section as `"name": [ {row}, ... ]` with one row per line.
inline void write_json(const char* path, bool quick,
                       const std::vector<Section>& sections) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"quick\": %s,\n  \"git_rev\": \"%s\",\n"
               "  \"build_type\": \"%s\",\n  \"build_flags\": \"%s\",\n"
               "  \"hardware_threads\": %u,\n",
               quick ? "true" : "false", PISA_GIT_REV, PISA_BENCH_BUILD_TYPE,
               PISA_BENCH_FLAGS,
               std::max(1u, std::thread::hardware_concurrency()));
  for (std::size_t s = 0; s < sections.size(); ++s) {
    const auto& [name, rows] = sections[s];
    std::fprintf(f, "  \"%s\": [\n", name.c_str());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i].emit(f, "    ");
      std::fprintf(f, "%s\n", i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(f, "  ]%s\n", s + 1 == sections.size() ? "" : ",");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

// ---- google-benchmark front end ------------------------------------------

// Console output stays intact; every successful run is also collected for
// the JSON snapshot.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      rows.push_back(JsonFields()
                         .add("name", run.benchmark_name())
                         .add("ns_per_iter", run.real_accumulated_time * 1e9 /
                                                 static_cast<double>(run.iterations))
                         .add("iterations", static_cast<long long>(run.iterations)));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<JsonFields> rows;
};

/// Strips `--quick` from argv (mapping it to a short measurement window),
/// runs the registered benchmarks and writes the JSON snapshot.
inline int run_benchmarks_to_json(int argc, char** argv,
                                  const char* json_path) {
  bool quick = false;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--quick") {
      quick = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  // Short measurement windows in quick mode: enough for a smoke signal,
  // cheap enough for every CI run.
  static char min_time_flag[] = "--benchmark_min_time=0.05";
  if (quick) args.push_back(min_time_flag);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  write_json(json_path, quick, {{"results", reporter.rows}});
  std::printf("Machine-readable results written to %s\n", json_path);
  return 0;
}

}  // namespace pisa::benchjson
