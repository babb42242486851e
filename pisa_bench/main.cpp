// pisa_bench: end-to-end benchmark of the PISA TCP deployment.
//
//   pisa_bench [--seed=N] [--seconds=S] [--trace-out=FILE] [--json-out=FILE]
//   pisa_bench --workload=NAME [same options]
//
// Without --workload every workload runs, each in a fresh child process so
// peak_rss_mb is per workload. Each run prints every metric by name with
// its unit, writes a JSON result (attribution header included) and ends its
// standard output with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the end-to-end metrics at the reference host speed (see
// at_reference_speed), or with --trace-out the per-layer ones.
// The exit status is non-zero when any decision differs from the
// watch::PlainWatch oracle or any operation failed.
//
// Every thread of the deployment, server and client alike, runs on one CPU,
// which changes from round to round (see CpuPlan in bench.hpp).
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

#ifndef PISA_SOURCE_ROOT
#define PISA_SOURCE_ROOT "."
#endif
#ifndef PISA_BENCH_BUILD_TYPE
#define PISA_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PISA_BENCH_FLAGS
#define PISA_BENCH_FLAGS ""
#endif

extern char** environ;

namespace {

using namespace pisa::bench;
namespace fs = std::filesystem;

struct Args {
  std::optional<WorkloadId> workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;
  std::string json_out = "pisa_bench.json";
  fs::path tmp_root = ".";
  CpuPlan cpus;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "pisa_bench: %s\n"
               "usage: pisa_bench [--workload=NAME] [--seed=N] [--seconds=S]\n"
               "                  [--trace-out=FILE] [--json-out=FILE]\n"
               "                  [--tmp-dir=DIR]\n"
               "workloads: paillier_open pir_paper pir_town pu_churn\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string key = arg, value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + key);
    }
    try {
      if (key == "--workload") {
        a.workload = parse_workload(value);
        if (!a.workload) usage("unknown workload " + value);
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
        if (!(a.seconds > 0 && a.seconds <= 600)) usage("bad --seconds");
      } else if (key == "--trace-out") {
        a.trace_out = value;
      } else if (key == "--json-out") {
        a.json_out = value;
      } else if (key == "--tmp-dir") {
        a.tmp_root = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  return a;
}

std::string shell_line(const std::string& cmd) {
  std::string out;
  if (std::FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const MetricSet& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m.items()) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

/// Attribution: the revision is read when the benchmark runs, so a result
/// always names the tree that produced it. git does not look above the
/// source root, so a tree that is not a repository reads "unknown".
std::string header_json(const Args& a) {
  const std::string root = PISA_SOURCE_ROOT;
  const std::string git =
      "GIT_CEILING_DIRECTORIES='" + fs::path(root).parent_path().string() +
      "' git -C '" + root + "' ";
  std::string rev = shell_line(git + "rev-parse HEAD 2>/dev/null");
  const bool in_git = !rev.empty();
  if (!in_git) rev = "unknown";
  const bool dirty =
      in_git &&
      !shell_line(git + "status --porcelain --untracked-files=no 2>/dev/null")
           .empty();
  std::string cpus;
  for (int c : a.cpus.cpus) cpus += (cpus.empty() ? "" : ", ") + std::to_string(c);
  std::ostringstream h;
  h << "{\"git_rev\": \"" << json_escape(rev) << "\", \"git_dirty\": "
    << (dirty ? "true" : "false") << ", \"build_type\": \""
    << PISA_BENCH_BUILD_TYPE << "\", \"build_flags\": \""
    << json_escape(PISA_BENCH_FLAGS) << "\", \"nproc\": "
    << ::sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpus\": [" << cpus << "]"
    << ", \"seed\": " << a.seed
    << ", \"seconds\": " << json_number(a.seconds) << "}";
  return h.str();
}

void print_metrics(const char* title, const MetricSet& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m.items())
    std::printf("  %-34s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
}

int run_one(const Args& a, const fs::path& tmp) {
  RunOptions opt;
  opt.id = *a.workload;
  opt.seed = a.seed;
  opt.seconds = a.seconds;
  opt.tmp_dir = tmp;
  opt.trace_out = a.trace_out;
  opt.cpus = a.cpus;
  const char* name = workload_name(opt.id);
  const std::string header = header_json(a);

  auto world = make_world(opt.id);
  const auto in = make_inputs(*world, opt.id, opt.seed);
  double range_blocks = 0;
  for (const auto& p : in.positions)
    range_blocks += p.range.second - p.range.first;
  range_blocks /= static_cast<double>(in.positions.size());
  std::printf("pisa_bench %s: seed %llu, %.3g s window, %zu blocks, C = %zu, "
              "%zu PU sites, %u SUs, %s, disclosed range %.1f blocks on "
              "average\n",
              name, static_cast<unsigned long long>(opt.seed), opt.seconds,
              world->blocks(), world->cfg.watch.channels, world->sites.size(),
              world->num_sus, world->pir() ? "PIR" : "Paillier", range_blocks);
  std::fflush(stdout);

  std::vector<EncryptedTemplate> templates;
  auto window = run_window(*world, in, opt, templates);
  const auto e2e_raw = end_to_end_metrics(window, opt.id);
  const auto e2e = at_reference_speed(e2e_raw, window);
  auto layers = counter_metrics(*world, window);
  std::size_t trace_mismatches = 0;
  if (!opt.trace_out.empty()) {
    const auto traced =
        traced_metrics(*world, in, opt, window, templates, trace_mismatches);
    for (const auto& [n, m] : traced.items()) layers.set(n, m.value, m.unit);
  }

  const std::size_t mismatches = window.mismatches + trace_mismatches;
  const bool correct = mismatches == 0;
  // The guarded decision tail is the 90th percentile, which every workload
  // samples with ten or more values beyond it; the 99th has that only from
  // 1000 samples on, so the result file carries it where a run has them.
  const bool has_p99 = window.decision_ms.size() >= 1000;
  const std::string decision_p99 =
      has_p99 ? json_number(percentile(window.decision_ms, 99)) : "null";
  std::printf(
      "\n%s: %zu decisions (%zu grants, %zu denials, %zu fast denials), "
      "%zu updates (%zu no-op events skipped), %zu failed, %zu oracle "
      "mismatches\n"
      "samples: decision latency %zu (p99 %s), update latency %zu (scenario "
      "driver polls every 200 us), prepare %zu, setup %zu%s%s\n",
      name, window.decisions, window.grants, window.denials,
      window.fast_denials, window.updates, window.skipped_updates,
      window.failed, mismatches, window.decision_ms.size(),
      has_p99 ? (decision_p99 + " ms").c_str() : "needs 1000 samples",
      window.update_ms.size(), window.prepare_ms.size(),
      window.setup_s.size(), window.valid ? "" : "\nINVALID RUN: ",
      window.invalid_reason.c_str());
  const double reference_ms = mean(window.reference_ms);
  std::printf("host-speed reference: %.6g ms over %zu samples, nominal %.6g ms\n",
              reference_ms, window.reference_ms.size(), kReferenceNominalMs);
  print_metrics("end-to-end, at the reference host speed:", e2e);
  print_metrics("end-to-end, as measured:", e2e_raw);
  print_metrics("per-layer:", layers);

  std::ofstream out(a.json_out);
  out << "{\n  \"header\": " << header << ",\n  \"workload\": \"" << name
      << "\",\n  \"valid\": " << (window.valid ? "true" : "false")
      << ",\n  \"invalid_reason\": \"" << json_escape(window.invalid_reason)
      << "\",\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << window.attempted()
      << ",\n  \"failed\": " << window.failed
      << ",\n  \"oracle_mismatches\": " << mismatches
      << ",\n  \"samples\": {\"decisions\": " << window.decisions
      << ", \"decision_latency\": " << window.decision_ms.size()
      << ", \"updates\": " << window.updates
      << ", \"update_latency\": " << window.update_ms.size()
      << ", \"prepare\": " << window.prepare_ms.size()
      << ", \"setups\": " << window.setup_s.size()
      << "},\n  \"decision_p50_ms\": "
      << json_number(percentile(window.decision_ms, 50))
      << ",\n  \"decision_p99_ms\": " << decision_p99
      << ",\n  \"verdicts\": {\"grants\": " << window.grants
      << ", \"denials\": " << window.denials
      << ", \"fast_denials\": " << window.fast_denials
      << "},\n  \"update_poll_resolution_us\": 200"
      << ",\n  \"reference\": {\"mean_ms\": " << json_number(reference_ms)
      << ", \"samples\": " << window.reference_ms.size()
      << ", \"nominal_ms\": " << json_number(kReferenceNominalMs)
      << "},\n  \"end_to_end\": " << metrics_json(e2e)
      << ",\n  \"end_to_end_raw\": " << metrics_json(e2e_raw)
      << ",\n  \"per_layer\": " << metrics_json(layers) << "\n}\n";
  out.close();
  if (!out) std::fprintf(stderr, "pisa_bench: cannot write %s\n", a.json_out.c_str());

  const auto& shown = opt.trace_out.empty() ? e2e : layers;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", window.attempted(), window.failed,
              metrics_json(shown).c_str());
  std::fflush(stdout);
  return correct && window.failed == 0 ? 0 : 1;
}

/// Every workload, each in its own child process.
int run_all(const Args& a, const fs::path& tmp) {
  std::string joined;
  int status_all = 0;
  for (const auto& w : all_workloads()) {
    const auto json = (tmp / (std::string("result_") + w.name + ".json")).string();
    std::vector<std::string> args{
        "/proc/self/exe",
        std::string("--workload=") + w.name,
        "--seed=" + std::to_string(a.seed),
        "--seconds=" + json_number(a.seconds),
        "--json-out=" + json,
        "--tmp-dir=" + tmp.string()};
    if (!a.trace_out.empty())
      args.push_back("--trace-out=" + a.trace_out + "." + w.name + ".json");
    std::vector<char*> argv;
    for (auto& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                      environ) != 0)
      throw std::runtime_error("cannot spawn a workload process");
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "pisa_bench: workload %s failed\n", w.name);
      status_all = 1;
    }
    std::ifstream in(json);
    std::stringstream ss;
    ss << in.rdbuf();
    if (!ss.str().empty()) joined += (joined.empty() ? "" : ",\n") + ss.str();
  }
  std::ofstream out(a.json_out);
  out << "{\"header\": " << header_json(a) << ",\n\"workloads\": [\n"
      << joined << "]}\n";
  std::printf("\nresults: %s\n", a.json_out.c_str());
  return status_all;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parse_args(argc, argv);
  const fs::path tmp =
      fs::absolute(a.tmp_root) / ("pisa_bench_" + std::to_string(::getpid()));
  int rc = 2;
  try {
    // Only a workload process places its threads: the children of run_all
    // inherit its mask, so it leaves the mask alone.
    if (a.workload) a.cpus = plan_cpus();
    fs::create_directories(tmp);
    rc = a.workload ? run_one(a, tmp) : run_all(a, tmp);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pisa_bench: %s\n", e.what());
    rc = 2;
  }
  std::error_code ec;
  fs::remove_all(tmp, ec);
  return rc;
}
