// pisa_bench: the end-to-end benchmark of the TCP deployment.
//
// Declarations shared by the benchmark's translation units: the two worlds,
// the seeded input streams every workload draws from, the TCP deployment
// bring-up, the counter snapshots, and the metric records both the
// untraced window and the traced replay fill in.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/sdc_server.hpp"
#include "crypto/chacha_rng.hpp"
#include "net/rpc_scenario.hpp"
#include "net/rpc_server.hpp"
#include "radio/pathloss.hpp"
#include "watch/matrices.hpp"
#include "watch/plain_watch.hpp"

namespace pisa::bench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- workloads -------------------------------------------------------------

enum class WorkloadId { kPaillierOpen, kPirPaper, kPirTown, kPuChurn };

struct WorkloadInfo {
  WorkloadId id;
  const char* name;
};

const std::vector<WorkloadInfo>& all_workloads();
std::optional<WorkloadId> parse_workload(std::string_view name);
const char* workload_name(WorkloadId id);

// ---- worlds ----------------------------------------------------------------

/// One deployment shape: protocol config, registered PU sites, SU fleet and
/// the path-loss model every F matrix and the oracle use. Non-movable: the
/// scenario driver and the oracle keep references to `model`.
struct World {
  core::PisaConfig cfg;
  std::vector<watch::PuSite> sites;
  std::uint32_t num_sus = 0;
  /// Per-channel EIRP levels the request templates rotate through.
  std::vector<double> eirp_levels_mw;
  /// Channels one request asks for, drawn from the seed (0 = all of them).
  std::size_t requested_channels = 0;
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::size_t blocks() const { return cfg.watch.grid_rows * cfg.watch.grid_cols; }
  bool pir() const { return cfg.query_mode == core::QueryMode::kPir; }
};

/// The world a workload runs in. Durability is on; each Deployment points
/// it at a directory of its own.
std::unique_ptr<World> make_world(WorkloadId id);

// ---- seeded inputs ---------------------------------------------------------

/// One pre-built SU request: who asks, from where, at what EIRP, the F
/// matrix it encrypts or evaluates, and the disclosed block range.
struct Position {
  std::uint32_t su_id = 0;
  watch::SuRequest request;
  watch::QMatrix f;
  std::pair<std::uint32_t, std::uint32_t> range;
};

struct PuEvent {
  std::uint32_t pu_id = 0;
  watch::PuTuning tuning;
};

/// 64-bit seeded generator with distribution code of its own, so inputs
/// depend on the seed alone and not on the standard library's
/// distribution implementations.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : eng_(seed) {}
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : eng_() % n; }
  double unit() { return static_cast<double>(eng_() >> 11) * 0x1.0p-53; }

 private:
  std::mt19937_64 eng_;
};

/// Derive the seed of one named input stream from the workload seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

/// Everything a workload's load generator draws from its seed. Streams are
/// independent, so the k-th decision or update is the same input whether a
/// run gets to op 300 or op 3000, and the traced replay can regenerate the
/// first ops of the untraced window exactly.
struct Inputs {
  std::vector<watch::PuTuning> initial;  ///< per PU id
  std::vector<double> signal_levels_mw;  ///< the seeded level set
  std::vector<Position> positions;       ///< 64 request templates
};

Inputs make_inputs(const World& world, WorkloadId id, std::uint64_t seed);

/// Decision stream: the template index of each successive decision, a fresh
/// seeded permutation of all templates per cycle.
class DecisionStream {
 public:
  DecisionStream(std::size_t templates, std::uint64_t seed);
  std::size_t next();

 private:
  SeededRng rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_;
};

/// PU event stream: every event changes its PU's tuning (a power toggle, or
/// a retune to another channel or signal level from the seeded set).
class UpdateStream {
 public:
  UpdateStream(const World& world, const Inputs& in, std::uint64_t seed);
  PuEvent next();
  /// Events that return every PU to its initial tuning (one per PU that
  /// moved away from it), after which the stream continues from there.
  std::vector<PuEvent> restore();

 private:
  SeededRng rng_;
  std::size_t channels_;
  std::vector<double> levels_;
  std::vector<watch::PuTuning> initial_;
  std::vector<watch::PuTuning> state_;
};

/// pu_churn step kinds: every block of 20 steps holds exactly 17 PU events
/// and 3 SU requests at seeded slots (the 0.85 event probability, with the
/// mix fixed so decision counts do not vary with the seed).
class ChurnPattern {
 public:
  explicit ChurnPattern(std::uint64_t seed);
  bool next_is_update();

 private:
  SeededRng rng_;
  std::vector<bool> block_;
  std::size_t pos_;
};

/// Open-loop due times at `rate_per_s`: the n = rate × seconds gaps are the
/// n quantiles of the exponential distribution in a seeded order, rescaled
/// so the window holds exactly n arrivals. Every seed offers the same gaps
/// and only their order changes, so the tail of an open-loop run depends on
/// the system more than on how bursty its seed happened to be.
std::vector<double> open_loop_due_ms(double rate_per_s, double seconds,
                                     std::uint64_t seed);

/// Stream ids for stream_seed().
enum Stream : std::uint64_t {
  kStreamWorld = 1,
  kStreamDecisions = 2,
  kStreamUpdates = 3,
  kStreamChurn = 4,
  kStreamArrivals = 5,
  kStreamPirShares = 6,
};

// ---- the TCP deployment ----------------------------------------------------

/// Response-hook plumbing: the RpcClient calls `record` on its dispatch
/// thread the moment a reply set completes; the load generator reads the
/// arrival times off the main thread.
class ArrivalLog {
 public:
  void record(std::uint64_t request_id);
  /// Take the arrival time of `request_id`, or nullopt after `timeout_ms`.
  std::optional<Clock::time_point> wait(std::uint64_t request_id,
                                        double timeout_ms);
  /// Forget every completion recorded so far (the log holds only what the
  /// load generator has yet to consume, so it stays small).
  void skip_completed();
  /// Take the next completion in arrival order, or nullopt after
  /// `timeout_ms`.
  std::optional<std::pair<std::uint64_t, Clock::time_point>> next_completed(
      double timeout_ms);
  /// The latest arrival once `count` completions were recorded in total, or
  /// nullopt after `timeout_ms`.
  std::optional<Clock::time_point> wait_count(std::uint64_t count,
                                              double timeout_ms);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, Clock::time_point> at_;
  std::deque<std::pair<std::uint64_t, Clock::time_point>> done_;
  std::uint64_t count_ = 0;
  Clock::time_point last_{};
};

/// RpcServer + one RpcClient over loopback TCP, with every SU and PU
/// registered and the initial PU columns folded. Key material comes from a
/// fixed key seed, so bring-up does the same work in every run; the
/// workload seed only shapes the inputs.
class Deployment {
 public:
  Deployment(const World& world, const Inputs& in,
             const std::filesystem::path& store_dir);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  rpc::RpcServer& server() { return *server_; }
  rpc::RpcClient& client() { return *client_; }
  ArrivalLog& arrivals() { return arrivals_; }

  /// One PU event through the scenario driver: returns once the SDC folded
  /// it and ran the re-probe round it triggered; false when the event
  /// changed nothing and so sent nothing.
  bool pu_send(const PuEvent& ev, bool use_delta);

  /// Request ids for Paillier submissions; disjoint from the ids RpcClient
  /// hands out itself (PIR requests).
  std::uint64_t next_request_id() { return next_rid_++; }

  /// Wait until the server has handled every frame this client sent: the
  /// replicas' PIR updates (the scenario driver's fold barrier covers only
  /// the SDC), then an idle dispatch lane. Entities must not be torn down
  /// under a handler that is still running, and a decision phase must not
  /// queue behind the previous phase's replica updates.
  void drain();

 private:
  const World& world_;
  std::uint64_t pir_updates_sent_ = 0;  ///< per replica
  std::filesystem::path store_dir_;
  crypto::ChaChaRng server_rng_;
  crypto::ChaChaRng client_rng_;
  ArrivalLog arrivals_;
  std::unique_ptr<rpc::RpcServer> server_;
  std::unique_ptr<rpc::RpcClient> client_;
  std::unique_ptr<rpc::TcpScenarioDriver> driver_;
  std::uint64_t next_rid_ = std::uint64_t{1} << 40;
};

/// Fixed seeds for the deployment's key material (server, client).
inline constexpr std::uint64_t kServerKeySeed = 0x5EED0001;
inline constexpr std::uint64_t kClientKeySeed = 0x5EED0002;

/// One Paillier request template encrypted under the deployment's group
/// key; `msg.request_id` is rewritten per submission.
struct EncryptedTemplate {
  core::SuRequestMsg msg;
  std::size_t ciphertext_width = 0;
  rpc::RpcClient::PreparedRequest with_id(std::uint64_t request_id) const;
};

/// The oracle's verdict on one request over its disclosed range: grant iff
/// every covered cell keeps N − X·F positive (eqs. (6)/(7) restricted to
/// the blocks the SDC or the PIR replicas are asked about; at the full range
/// this is PlainWatch::process_request).
bool oracle_granted(const watch::PlainWatch& oracle, const Position& pos);

/// oracle_granted for every template under the oracle's current state.
std::vector<bool> oracle_verdicts(const watch::PlainWatch& oracle,
                                  const std::vector<Position>& positions);

/// A fresh PlainWatch with the world's sites and the initial tunings.
std::unique_ptr<watch::PlainWatch> make_oracle(const World& world,
                                               const Inputs& in);

// ---- counters --------------------------------------------------------------

/// Every counter the layers expose, read after a quiesce.
struct Counters {
  core::SdcServer::Stats sdc;
  std::uint64_t stp_entries = 0;
  std::uint64_t stp_probe_slots = 0;
  double pir_scan_ms = 0;  ///< Σ over replicas
  std::uint64_t snapshots = 0;  ///< SDC engine compactions
  net::TcpTransport::Stats client_net;
  net::TcpTransport::Stats server_net;
  double cpu_ms = 0;  ///< process user + system CPU
  Clock::time_point wall;
};

Counters read_counters(Deployment& d, const World& world);

double process_cpu_ms();
double peak_rss_mb();

// ---- metrics ---------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// Ordered name → metric map (insertion order is print order).
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, Metric>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

/// p-th percentile (0..100) by nearest rank on a sorted copy; 0 if empty.
double percentile(std::vector<double> v, double p);

/// Arithmetic mean; 0 if empty.
double mean(const std::vector<double>& v);

// ---- CPU placement ---------------------------------------------------------

/// Where the benchmark's threads run. In each round every thread of the
/// deployment, server and client alike, runs on one CPU, `system(round)`:
/// with one exec lane the deployment does its work serially, and on one CPU
/// the hand-offs between the client, the server's I/O thread and its
/// dispatch lane are context switches rather than wake-ups of idle virtual
/// CPUs, whose latency swings with the hypervisor's load. The CPU changes
/// from round to round, in turn over every CPU the process may use: on a
/// shared host each virtual CPU runs at full speed or up to 1.7 times
/// slower for seconds at a time, independently of the others, so a run held
/// on one CPU took its whole reading from that CPU's luck. The open-loop
/// generator paces its sends from `generator(round)`, the next CPU in turn,
/// so a busy system cannot make it late; elsewhere it runs on `system` too.
struct CpuPlan {
  std::vector<int> cpus;  ///< empty: placement unavailable, threads float

  int system(std::size_t round) const;     ///< -1 when `cpus` is empty
  int generator(std::size_t round) const;  ///< == system with one CPU
};

/// Every CPU the process may use; moves the calling thread to system(0).
/// Call it before any thread starts, so every thread inherits the mask.
CpuPlan plan_cpus();

/// Move the calling thread to `cpu` (no-op for -1).
void run_on_cpu(int cpu);

/// Move every thread of the process to `cpu` (no-op for -1); threads
/// started later inherit the mask of the thread that starts them.
void move_process_to_cpu(int cpu);

// ---- one run ---------------------------------------------------------------

struct RunOptions {
  WorkloadId id = WorkloadId::kPaillierOpen;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::filesystem::path tmp_dir;
  std::string trace_out;  ///< non-empty: traced run, spans dumped here
  CpuPlan cpus;
};

/// Raw results of the untraced window, including the counters read before
/// and after it.
struct WindowResult {
  std::vector<double> setup_s;     ///< one per bring-up
  std::vector<double> prepare_ms;  ///< SU request preparation
  std::vector<double> decision_ms; ///< the decision-latency samples
  std::vector<double> update_ms;
  std::vector<double> late_ms;     ///< open-loop generator lateness
  std::vector<double> reference_ms;  ///< host-speed reference, thread CPU
  double throughput_rps = 0;

  std::size_t decisions = 0;  ///< completed, every phase
  std::size_t updates = 0;    ///< sent and folded
  std::size_t skipped_updates = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;
  std::size_t grants = 0, denials = 0, fast_denials = 0;

  double ciphertexts = 0;     ///< Σ SU-request ciphertexts over decisions
  double rows_fetched = 0;    ///< Σ PIR rows over PIR decisions
  std::size_t pir_decisions = 0;
  std::uint64_t pir_reply_bytes = 0;
  std::uint64_t wal_bytes = 0, wal_records = 0;  ///< over wal_updates
  std::size_t wal_updates = 0;  ///< updates that did not compact

  /// CPU and client wire bytes over the primary-operation phases.
  double primary_cpu_ms = 0;
  double primary_wire_bytes = 0;

  Counters before, after;
  double peak_rss_mb = 0;
  std::size_t pir_row_bytes = 0;
  std::size_t pir_db_rows = 0;

  bool valid = true;
  std::string invalid_reason;

  std::size_t attempted() const { return decisions + updates + failed; }
  /// What the per-op metrics divide by: decisions, or on pu_churn (a fixed
  /// 17:3 mix) every operation.
  std::size_t primary_ops(WorkloadId id) const;
};

/// Bring the deployment up several times, run the untraced window and
/// check every decision against the oracle. `templates` receives the
/// encrypted request templates (empty in PIR mode) for the traced replay.
WindowResult run_window(const World& world, const Inputs& in,
                        const RunOptions& opt,
                        std::vector<EncryptedTemplate>& templates);

/// The end-to-end metrics as measured.
MetricSet end_to_end_metrics(const WindowResult& r, WorkloadId id);

/// About the host-speed reference kernel's mean time on the host the
/// benchmark was built on (0.33–0.37 ms over a set of ten runs).
inline constexpr double kReferenceNominalMs = 0.34;

/// `raw` at the reference host speed: every time (unit ms or s) scaled by
/// kReferenceNominalMs over the run's mean reference time, and every rate
/// (unit 1/s) by the inverse; counts and sizes unchanged. The reference
/// shares no code with the system under test, so a change to the system
/// moves these values as much as the raw ones, while the host's drift in
/// speed over the minutes between runs cancels.
MetricSet at_reference_speed(const MetricSet& raw, const WindowResult& r);

MetricSet counter_metrics(const World& world, const WindowResult& r);

/// The traced replay: the first operations of the same seeded sequence, in
/// process with a span around every call into a layer, then once more over
/// TCP one operation at a time. Returns the per-layer metrics it measures;
/// `mismatches` receives decisions that disagreed with the oracle.
MetricSet traced_metrics(const World& world, const Inputs& in,
                         const RunOptions& opt, const WindowResult& window,
                         const std::vector<EncryptedTemplate>& templates,
                         std::size_t& mismatches);

}  // namespace pisa::bench
