// Shared JSON emission for every bench binary that writes a BENCH_*.json
// perf snapshot, so the committed snapshots all parse the same way (and
// scripts/check_perf_regression.py only needs one dialect).
//
// Two layers:
//   * JsonFields / write_row_array — a flat ordered field list plus an
//     array-of-rows writer. Structured emitters (bench_system) build their
//     rows from these instead of hand-rolling fprintf format strings.
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
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace pisa::benchjson {

/// Ordered key → pre-formatted-value list for one flat JSON row. All the
/// BENCH_*.json rows are flat objects of scalars, which is all this needs
/// to support.
class JsonFields {
 public:
  void add(std::string key, std::size_t v) {
    kv_.emplace_back(std::move(key), std::to_string(v));
  }
  void add(std::string key, long long v) {
    kv_.emplace_back(std::move(key), std::to_string(v));
  }
  void add(std::string key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    kv_.emplace_back(std::move(key), buf);
  }
  void add(std::string key, const std::string& v) {
    kv_.emplace_back(std::move(key), "\"" + v + "\"");
  }

  void emit(std::FILE* f, const char* indent) const {
    std::fprintf(f, "%s{", indent);
    for (std::size_t i = 0; i < kv_.size(); ++i)
      std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ", kv_[i].first.c_str(),
                   kv_[i].second.c_str());
    std::fprintf(f, "}");
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// `"name": [ {row}, {row}, ... ]` with one row per line; `last` controls
/// the trailing comma at the enclosing-object level.
inline void write_row_array(std::FILE* f, const char* name,
                            const std::vector<JsonFields>& rows, bool last) {
  std::fprintf(f, "  \"%s\": [\n", name);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].emit(f, "    ");
    std::fprintf(f, "%s\n", i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]%s\n", last ? "" : ",");
}

// ---- google-benchmark front end ------------------------------------------

struct Row {
  std::string name;
  double ns_per_iter;
  long long iterations;
};

// Console output stays intact; every successful run is also collected for
// the JSON snapshot.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      rows.push_back({run.benchmark_name(),
                      run.real_accumulated_time * 1e9 /
                          static_cast<double>(run.iterations),
                      static_cast<long long>(run.iterations)});
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Row> rows;
};

/// Opens the snapshot object and writes the attribution header every
/// BENCH_*.json carries: measurement mode, source revision ("-dirty" when
/// measured on uncommitted changes), build type and flags, hardware threads.
inline void write_header(std::FILE* f, bool quick) {
  std::fprintf(f,
               "{\n  \"quick\": %s,\n  \"git_rev\": \"%s\",\n"
               "  \"build_type\": \"%s\",\n  \"build_flags\": \"%s\",\n"
               "  \"hardware_threads\": %u,\n",
               quick ? "true" : "false", PISA_GIT_REV, PISA_BENCH_BUILD_TYPE,
               PISA_BENCH_FLAGS,
               std::max(1u, std::thread::hardware_concurrency()));
}

inline void write_json(const char* path, bool quick,
                       const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
    return;
  }
  write_header(f, quick);
  std::vector<JsonFields> out;
  out.reserve(rows.size());
  for (const auto& r : rows) {
    JsonFields j;
    j.add("name", r.name);
    j.add("ns_per_iter", r.ns_per_iter);
    j.add("iterations", r.iterations);
    out.push_back(std::move(j));
  }
  write_row_array(f, "results", out, /*last=*/true);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

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
  write_json(json_path, quick, reporter.rows);
  std::printf("Machine-readable results written to %s\n", json_path);
  return 0;
}

}  // namespace pisa::benchjson
