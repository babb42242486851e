// The untraced window: repeated bring-up, pre-encryption, the workload's
// load loops, counter snapshots and the oracle check.
//
// Load shape: one load-generator thread (this one) drives one RpcClient
// connection; the server runs in-process on one exec lane. Every SU
// request is encrypted before the window; a submission only rewrites the
// request id of a pre-encrypted template. Decision latency runs from the
// hand-off to the client (the due time, on the open loop) to the arrival of
// the last reply the SU needs, stamped by the client's response hook;
// decrypting and checking the reply happen after the window.
//
// The phases of a workload are cut into rounds and interleaved, so every
// metric samples the whole window rather than one stretch of it, and each
// round runs on the next CPU in turn (see CpuPlan), so every metric samples
// every CPU.
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "pir/pir_client.hpp"

namespace pisa::bench {

namespace {

constexpr double kTimeoutMs = 30'000.0;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kWarmupDecisions = 8;
constexpr std::size_t kRounds = 10;
constexpr std::size_t kInFlight = 8;
constexpr double kOpenRatePerS = 7.0;
/// paillier_open's split of each round: open loop, eight in flight, updates.
constexpr double kOpenShare = 0.74;
constexpr double kClosedShare = 0.08;
constexpr double kPaillierUpdateShare = 0.18;
constexpr double kLateLimitMs = 1.0;
/// Between two operations of the PIR, update and churn loops, where none is
/// in flight, the load generator times the host-speed reference every
/// kReferenceEvery and SU preparation every kPrepareEvery.
constexpr auto kReferenceEvery = std::chrono::milliseconds(50);
constexpr auto kPrepareEvery = std::chrono::milliseconds(200);

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of the calling thread.
double thread_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// The host-speed reference: eight independent 64-bit multiply-add chains.
/// It shares no code with the system under test, and the empty asm
/// statements keep every step in a scalar register whatever the compiler
/// flags, so its cost moves with the host and nothing else.
void reference_kernel(std::uint64_t seed) {
  std::uint64_t x[8];
  for (std::uint64_t j = 0; j < 8; ++j) x[j] = seed + j;
  for (int i = 0; i < 100'000; ++i) {
    for (auto& v : x) {
      v = v * 6364136223846793005ULL + 1442695040888963407ULL;
      asm volatile("" : "+r"(v));
    }
  }
}

Clock::time_point after_seconds(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

class Window {
 public:
  Window(const World& world, const Inputs& in, const RunOptions& opt,
         WindowResult& r, std::vector<EncryptedTemplate>& templates)
      : world_(world), in_(in), opt_(opt), r_(r), templates_(templates),
        dstream_(in.positions.size(), opt.seed),
        ustream_(world, in, opt.seed), churn_(opt.seed),
        pir_prep_rng_(stream_seed(opt.seed, kStreamPirShares)),
        pir_prep_(1, world.cfg.pir.replicas, world.blocks(), pir_prep_rng_) {}

  void run();

 private:
  struct Deferred {
    std::uint64_t request_id;
    std::size_t pos;
    bool expected;
  };

  /// CPU and client wire bytes at one instant, and the wall and CPU time
  /// the reference and preparation samples took so far.
  struct Meter {
    double cpu_ms;
    double wire_bytes;
    double sampling_s;
    double sampling_cpu_ms;
  };
  Meter meter();
  /// Charge [m0, now), less the samples taken in it, to the primary
  /// operations (decisions; every op on pu_churn), which cpu_ms_per_op and
  /// wire_bytes_per_op divide by.
  void charge_primary(const Meter& m0);
  /// Wall time since `t_start`, less the samples taken since m0.
  double load_seconds(Clock::time_point t_start, const Meter& m0) const;

  void setup();
  void encrypt_templates();
  void warm_up();
  /// Move the deployment to the round's CPU.
  void start_round(std::size_t round);
  /// Called between two operations: takes the reference and preparation
  /// samples that are due.
  void sample_between_ops();
  void reference_sample();
  void prepare_sample();

  /// Template `p` under a fresh request id, recorded for the oracle check.
  rpc::RpcClient::PreparedRequest next_request(std::size_t p, bool expected);
  std::uint64_t submit(std::size_t p, bool expected);
  void open_loop(const std::vector<double>& due_ms);
  void closed_loop(double seconds);
  void pir_loop(double seconds);
  void update_loop(double seconds);
  void churn_loop(double seconds);
  void paillier_step(std::size_t p);
  void pir_step(std::size_t p);
  void update_step(const PuEvent& ev);
  void verify_deferred();

  const World& world_;
  const Inputs& in_;
  const RunOptions& opt_;
  WindowResult& r_;
  std::vector<EncryptedTemplate>& templates_;
  DecisionStream dstream_;
  UpdateStream ustream_;
  ChurnPattern churn_;
  crypto::ChaChaRng pir_prep_rng_;
  pir::PirClient pir_prep_;  ///< a client of the deployment's shape
  Clock::time_point next_reference_{};
  Clock::time_point next_prepare_{};
  std::size_t prepared_ = 0;
  double sampling_s_ = 0;
  double sampling_cpu_ms_ = 0;
  std::unique_ptr<Deployment> dep_;
  std::unique_ptr<watch::PlainWatch> oracle_;
  std::vector<bool> expected_;  ///< per template, at the initial tunings
  std::vector<Deferred> deferred_;
  std::set<std::uint64_t> failed_ids_;
  std::uint64_t pir_done_ = 0;  ///< completed PIR requests on dep_
  std::size_t round_ = 0;
  std::size_t closed_done_ = 0;
  double closed_s_ = 0;
  double pir_s_ = 0;
  double churn_s_ = 0;
};

void Window::run() {
  oracle_ = make_oracle(world_, in_);
  expected_ = oracle_verdicts(*oracle_, in_.positions);
  setup();
  if (world_.pir()) {
    const auto& db = dep_->server().pir_replica(0)->replica().database();
    r_.pir_row_bytes = db.row_bytes();
    r_.pir_db_rows = db.rows();
  }

  dep_->server().transport().quiesce(kTimeoutMs);
  r_.before = read_counters(*dep_, world_);
  sample_between_ops();  // every run has a reference sample, however short
  const double s = opt_.seconds;
  const double round = s / static_cast<double>(kRounds);
  switch (opt_.id) {
    case WorkloadId::kPaillierOpen: {
      // The open loop gets most of each round: its tail needs the samples.
      // At 7 req/s it keeps the deployment about a quarter busy, so queueing
      // shows in the tail without a slower host amplifying it much.
      const auto due = open_loop_due_ms(kOpenRatePerS, kOpenShare * s, opt_.seed);
      const double open_ms = kOpenShare * round * 1e3;
      for (std::size_t k = 0; k < kRounds; ++k) {
        start_round(k);
        std::vector<double> slice;
        for (double d : due)
          if (d >= static_cast<double>(k) * open_ms &&
              d < static_cast<double>(k + 1) * open_ms)
            slice.push_back(d - static_cast<double>(k) * open_ms);
        open_loop(slice);
        closed_loop(kClosedShare * round);
        update_loop(kPaillierUpdateShare * round);
      }
      r_.throughput_rps =
          closed_s_ > 0 ? static_cast<double>(closed_done_) / closed_s_ : 0;
      break;
    }
    case WorkloadId::kPirPaper:
    case WorkloadId::kPirTown: {
      // A paper-world update takes about 1.7 times a town one, so it gets
      // a larger share: both reach 1000 updates in a 25 s run even when the
      // host runs a quarter slower than usual.
      const double updates = opt_.id == WorkloadId::kPirPaper ? 0.38 : 0.22;
      for (std::size_t k = 0; k < kRounds; ++k) {
        start_round(k);
        pir_loop((1 - updates) * round);
        update_loop(updates * round);
      }
      r_.throughput_rps =
          pir_s_ > 0 ? static_cast<double>(r_.pir_decisions) / pir_s_ : 0;
      break;
    }
    case WorkloadId::kPuChurn:
      for (std::size_t k = 0; k < kRounds; ++k) {
        start_round(k);
        churn_loop(round);
      }
      r_.throughput_rps =
          churn_s_ > 0 ? static_cast<double>(r_.decisions) / churn_s_ : 0;
      break;
  }
  dep_->server().transport().quiesce(kTimeoutMs);
  r_.after = read_counters(*dep_, world_);
  r_.peak_rss_mb = peak_rss_mb();

  verify_deferred();
  if (!r_.late_ms.empty() && percentile(r_.late_ms, 99) > kLateLimitMs) {
    r_.valid = false;
    r_.invalid_reason = "open-loop generator p99 lateness above 1 ms";
  }
  dep_.reset();
}

Window::Meter Window::meter() {
  const auto s = dep_->client().transport().stats();
  return {process_cpu_ms(),
          static_cast<double>(s.bytes_sent + s.bytes_received), sampling_s_,
          sampling_cpu_ms_};
}

void Window::charge_primary(const Meter& m0) {
  const auto m1 = meter();
  r_.primary_cpu_ms += (m1.cpu_ms - m0.cpu_ms) -
                       (m1.sampling_cpu_ms - m0.sampling_cpu_ms);
  r_.primary_wire_bytes += m1.wire_bytes - m0.wire_bytes;
}

double Window::load_seconds(Clock::time_point t_start, const Meter& m0) const {
  return seconds_between(t_start, Clock::now()) - (sampling_s_ - m0.sampling_s);
}

// Bring-up is timed kSetups times on identical key material; each covers
// keygen, connect, SU/PU registration, the initial PU columns and the
// warm-up, but not the request pre-encryption.
void Window::setup() {
  for (std::size_t k = 0; k < kSetups; ++k) {
    dep_.reset();
    pir_done_ = 0;
    const auto t0 = Clock::now();
    dep_ = std::make_unique<Deployment>(
        world_, in_, opt_.tmp_dir / ("deploy_" + std::to_string(k)));
    const auto t1 = Clock::now();
    if (templates_.empty() && !world_.pir()) encrypt_templates();
    const auto t2 = Clock::now();
    warm_up();
    const auto t3 = Clock::now();
    r_.setup_s.push_back(seconds_between(t0, t1) + seconds_between(t2, t3));
  }
}

// The group key comes from the fixed key seed, so templates encrypted once
// are valid for every bring-up of this world.
void Window::encrypt_templates() {
  auto& client = dep_->client();
  const std::size_t width = dep_->server().group_key().ciphertext_bytes();
  for (const auto& pos : in_.positions) {
    templates_.push_back(EncryptedTemplate{
        client.su(pos.su_id).prepare_request(pos.f, 0, pos.range.first,
                                             pos.range.second),
        width});
  }
}

void Window::start_round(std::size_t round) {
  round_ = round;
  move_process_to_cpu(opt_.cpus.system(round));
}

// Samples are spread over the window rather than taken in bursts: each
// virtual CPU of a shared host switches between full speed and about 1.7
// times slower every few hundred milliseconds, so a burst reads a single
// such state. Both kinds are timed in this thread's CPU time, so server
// threads still finishing the last operation on this CPU do not stretch
// them. Their time is kept out of the load loops' time and CPU.
void Window::sample_between_ops() {
  const auto t0 = Clock::now();
  const bool reference = t0 >= next_reference_;
  const bool prepare = t0 >= next_prepare_;
  if (!reference && !prepare) return;
  const double cpu0 = thread_cpu_ms();
  if (reference) {
    reference_sample();
    next_reference_ = t0 + kReferenceEvery;
  }
  if (prepare) {
    prepare_sample();
    next_prepare_ = t0 + kPrepareEvery;
  }
  sampling_cpu_ms_ += thread_cpu_ms() - cpu0;
  sampling_s_ += seconds_between(t0, Clock::now());
}

void Window::reference_sample() {
  const double cpu0 = thread_cpu_ms();
  reference_kernel(r_.reference_ms.size());
  r_.reference_ms.push_back(thread_cpu_ms() - cpu0);
}

// SU request preparation of the templates in turn. Paillier: one encryption
// of the template's F. PIR: the share split plus query encoding. A sample
// repeats the preparation for at least 1 ms and takes the mean: a town PIR
// preparation takes about a microsecond, too close to the clock's own cost.
void Window::prepare_sample() {
  constexpr auto kMinSample = std::chrono::milliseconds(1);
  const std::size_t p = prepared_++ % in_.positions.size();
  const auto& pos = in_.positions[p];
  const double cpu0 = thread_cpu_ms();
  const auto t0 = Clock::now();
  std::size_t reps = 0;
  std::size_t sink = 0;
  do {
    if (world_.pir()) {
      for (const auto& q :
           pir_prep_.make_queries(p, pos.range.first, pos.range.second))
        sink += q.encode().size();
    } else {
      sink += dep_->client()
                  .su(pos.su_id)
                  .prepare_request(pos.f, 0, pos.range.first, pos.range.second)
                  .f.size();
    }
    ++reps;
  } while (Clock::now() - t0 < kMinSample);
  if (sink == 0) throw std::logic_error("prepared an empty request");
  r_.prepare_ms.push_back((thread_cpu_ms() - cpu0) / static_cast<double>(reps));
}

// Warm-up: a few decisions on fixed templates and one PU off/on pair, so
// lazy pools, page faults and first-use paths land before the window. The
// PU ends where it started, so the oracle state is unchanged.
void Window::warm_up() {
  auto& client = dep_->client();
  for (std::size_t i = 0; i < kWarmupDecisions; ++i) {
    const auto& pos = in_.positions[i];
    bool granted = false;
    if (world_.pir()) {
      auto out = client.pir_request(pos.su_id, pos.f, pos.range.first,
                                    pos.range.second, kTimeoutMs);
      if (!out.completed ||
          !dep_->arrivals().wait_count(++pir_done_, kTimeoutMs))
        throw std::runtime_error("warm-up PIR request failed");
      dep_->arrivals().skip_completed();
      granted = out.granted;
    } else {
      const auto rid = dep_->next_request_id();
      client.submit(templates_[i].with_id(rid));
      core::SuResponseMsg resp;
      bool fast = false;
      if (!client.wait_response(rid, &resp, kTimeoutMs, &fast))
        throw std::runtime_error("warm-up request timed out");
      granted = !fast && client.su(pos.su_id)
                             .process_response(resp, dep_->server().license_key())
                             .granted;
    }
    if (granted != expected_[i]) ++r_.mismatches;
  }
  dep_->pu_send(PuEvent{0, watch::PuTuning{}}, true);
  dep_->pu_send(PuEvent{0, in_.initial[0]}, true);
}

rpc::RpcClient::PreparedRequest Window::next_request(std::size_t p,
                                                    bool expected) {
  auto req = templates_[p].with_id(dep_->next_request_id());
  deferred_.push_back(Deferred{req.request_id, p, expected});
  r_.ciphertexts += static_cast<double>(templates_[p].msg.f.size());
  return req;
}

std::uint64_t Window::submit(std::size_t p, bool expected) {
  const auto req = next_request(p, expected);
  dep_->client().submit(req);
  return req.request_id;
}

// Independent SUs: seeded arrivals at a fixed mean rate, each request timed
// from its due time, so a stall counts against every request queued behind
// it. The sends leave from the generator's own CPU. The generator sleeps
// until kSpinBeforeDue before each due time and spins the rest: an idle
// virtual CPU took a few milliseconds to wake now and then, which left half
// the runs' generators more than 1 ms late at the 99th percentile.
void Window::open_loop(const std::vector<double>& due_ms) {
  constexpr auto kSpinBeforeDue = std::chrono::milliseconds(3);
  const auto m0 = meter();
  run_on_cpu(opt_.cpus.generator(round_));
  std::vector<std::pair<std::uint64_t, Clock::time_point>> sent;
  sent.reserve(due_ms.size());
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  for (double d : due_ms) {
    const std::size_t p = dstream_.next();
    const auto req = next_request(p, expected_[p]);
    const auto at = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(d));
    std::this_thread::sleep_until(at - kSpinBeforeDue);
    auto now = Clock::now();
    while (now < at) now = Clock::now();
    dep_->client().submit(req);
    r_.late_ms.push_back(ms_between(at, now));
    sent.emplace_back(req.request_id, at);
  }
  run_on_cpu(opt_.cpus.system(round_));
  for (const auto& [rid, at] : sent) {
    auto arrived = dep_->arrivals().wait(rid, kTimeoutMs);
    if (!arrived) {
      ++r_.failed;
      failed_ids_.insert(rid);
      continue;
    }
    r_.decision_ms.push_back(ms_between(at, *arrived));
    ++r_.decisions;
  }
  charge_primary(m0);
}

// A fixed number of requests in flight: the only phase where batching or
// pipelining across requests can show, so it gives throughput_rps.
void Window::closed_loop(double seconds) {
  const auto m0 = meter();
  auto& log = dep_->arrivals();
  log.skip_completed();
  std::unordered_set<std::uint64_t> inflight;
  auto send_one = [&] {
    const std::size_t p = dstream_.next();
    inflight.insert(submit(p, expected_[p]));
  };
  const auto t_start = Clock::now();
  const auto t_end = after_seconds(t_start, seconds);
  for (std::size_t i = 0; i < kInFlight; ++i) send_one();
  Clock::time_point last = t_start;
  while (!inflight.empty()) {
    auto next = log.next_completed(kTimeoutMs);
    if (!next) {
      r_.failed += inflight.size();
      failed_ids_.insert(inflight.begin(), inflight.end());
      break;
    }
    if (inflight.erase(next->first) == 0) continue;
    ++closed_done_;
    ++r_.decisions;
    last = next->second;
    if (Clock::now() < t_end) send_one();
  }
  closed_s_ += seconds_between(t_start, last);
  charge_primary(m0);
}

// One SU session, back-to-back PIR requests: pir_request returns after the
// SU reconstructed and evaluated, the response hook stamps the last reply.
void Window::pir_loop(double seconds) {
  const auto m0 = meter();
  auto& client = dep_->client();
  const auto rx0 = client.transport().stats().bytes_received;
  const auto t_start = Clock::now();
  const auto t_end = after_seconds(t_start, seconds);
  while (Clock::now() < t_end) {
    pir_step(dstream_.next());
    sample_between_ops();
  }
  pir_s_ += load_seconds(t_start, m0);
  r_.pir_reply_bytes += client.transport().stats().bytes_received - rx0;
  charge_primary(m0);
}

void Window::pir_step(std::size_t p) {
  const auto& pos = in_.positions[p];
  const auto t_send = Clock::now();
  auto out = dep_->client().pir_request(pos.su_id, pos.f, pos.range.first,
                                        pos.range.second, kTimeoutMs);
  // The hook may fire just after pir_request returns; wait for it.
  auto arrived = out.completed
                     ? dep_->arrivals().wait_count(++pir_done_, kTimeoutMs)
                     : std::nullopt;
  dep_->arrivals().skip_completed();
  if (!arrived) {
    ++r_.failed;
    return;
  }
  r_.decision_ms.push_back(ms_between(t_send, *arrived));
  ++r_.decisions;
  ++r_.pir_decisions;
  r_.rows_fetched += pos.range.second - pos.range.first;
  (out.granted ? r_.grants : r_.denials)++;
  if (out.granted != expected_[p]) ++r_.mismatches;
}

// PU events for `seconds`, then the events that bring every PU back to its
// initial tuning, so the next round's decisions meet the initial state
// again (on paillier_open no cell is ever exhausted while SUs ask), and a
// drain, so they do not queue behind the replicas' last column updates.
void Window::update_loop(double seconds) {
  const auto t_end = after_seconds(Clock::now(), seconds);
  while (Clock::now() < t_end) {
    update_step(ustream_.next());
    sample_between_ops();
  }
  for (const auto& ev : ustream_.restore()) update_step(ev);
  dep_->drain();
}

// Writes beside reads: 17 PU events per 3 pre-encrypted SU requests, one
// driver, each step finished before the next starts.
void Window::churn_loop(double seconds) {
  const auto m0 = meter();
  const auto t_start = Clock::now();
  const auto t_end = after_seconds(t_start, seconds);
  while (Clock::now() < t_end) {
    if (churn_.next_is_update())
      update_step(ustream_.next());
    else
      paillier_step(dstream_.next());
    sample_between_ops();
  }
  churn_s_ += load_seconds(t_start, m0);
  charge_primary(m0);
}

void Window::paillier_step(std::size_t p) {
  const bool expected = oracle_granted(*oracle_, in_.positions[p]);
  const auto t_send = Clock::now();
  const auto rid = submit(p, expected);
  auto arrived = dep_->arrivals().wait(rid, kTimeoutMs);
  if (!arrived) {
    ++r_.failed;
    failed_ids_.insert(rid);
    return;
  }
  r_.decision_ms.push_back(ms_between(t_send, *arrived));
  ++r_.decisions;
}

// A PU event as a §3.9 delta: pu_send returns once the SDC folded it and the
// re-probe round it triggered is done (the scenario driver polls every
// 200 µs).
void Window::update_step(const PuEvent& ev) {
  const auto& engine = dep_->server().sdc().state();
  const auto wal_b0 = engine.wal_bytes();
  const auto wal_r0 = engine.wal_records();
  const auto snap0 = engine.snapshots_written();
  const auto t0 = Clock::now();
  bool sent = false;
  try {
    sent = dep_->pu_send(ev, /*use_delta=*/true);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "pisa_bench: PU update failed: %s\n", e.what());
    ++r_.failed;
    oracle_->pu_update(ev.pu_id, ev.tuning);
    return;
  }
  const auto t1 = Clock::now();
  oracle_->pu_update(ev.pu_id, ev.tuning);
  if (!sent) {
    ++r_.skipped_updates;
    return;
  }
  r_.update_ms.push_back(ms_between(t0, t1));
  ++r_.updates;
  if (engine.snapshots_written() == snap0) {
    r_.wal_bytes += engine.wal_bytes() - wal_b0;
    r_.wal_records += engine.wal_records() - wal_r0;
    ++r_.wal_updates;
  }
}

// Off the clock: decrypt every Paillier reply, verify the license and
// compare the verdict with the oracle's.
void Window::verify_deferred() {
  auto& client = dep_->client();
  const auto& license_key = dep_->server().license_key();
  for (const auto& d : deferred_) {
    if (failed_ids_.contains(d.request_id)) continue;
    core::SuResponseMsg resp;
    bool fast = false;
    if (!client.wait_response(d.request_id, &resp, kTimeoutMs, &fast)) {
      ++r_.failed;
      continue;
    }
    bool granted = false;
    if (fast) {
      ++r_.fast_denials;
    } else {
      granted = client.su(in_.positions[d.pos].su_id)
                    .process_response(resp, license_key)
                    .granted;
      (granted ? r_.grants : r_.denials)++;
    }
    if (granted != d.expected) ++r_.mismatches;
  }
}

}  // namespace

WindowResult run_window(const World& world, const Inputs& in,
                        const RunOptions& opt,
                        std::vector<EncryptedTemplate>& templates) {
  WindowResult r;
  Window w{world, in, opt, r, templates};
  w.run();
  return r;
}

std::size_t WindowResult::primary_ops(WorkloadId id) const {
  return id == WorkloadId::kPuChurn ? decisions + updates : decisions;
}

MetricSet end_to_end_metrics(const WindowResult& r, WorkloadId id) {
  MetricSet m;
  const double ops = static_cast<double>(std::max<std::size_t>(1, r.primary_ops(id)));
  // Decisions and preparations report their mean, not their median: on a
  // shared host their samples fall into a fast and a slow cluster (see
  // sample_between_ops), and the median jumps from one to the other as the
  // share of slow time drifts, where the mean moves in proportion to it.
  m.set("decision_mean_ms", mean(r.decision_ms), "ms");
  m.set("decision_p90_ms", percentile(r.decision_ms, 90), "ms");
  m.set("throughput_rps", r.throughput_rps, "1/s");
  m.set("update_p50_ms", percentile(r.update_ms, 50), "ms");
  m.set("update_p99_ms", percentile(r.update_ms, 99), "ms");
  m.set("prepare_mean_ms", mean(r.prepare_ms), "ms");
  m.set("wire_bytes_per_op", r.primary_wire_bytes / ops, "B");
  m.set("cpu_ms_per_op", r.primary_cpu_ms / ops, "ms");
  m.set("setup_s", percentile(r.setup_s, 50), "s");
  m.set("peak_rss_mb", r.peak_rss_mb, "MB");
  return m;
}

MetricSet at_reference_speed(const MetricSet& raw, const WindowResult& r) {
  const double ref = mean(r.reference_ms);
  const double k = ref > 0 ? kReferenceNominalMs / ref : 1.0;
  MetricSet m;
  for (const auto& [name, metric] : raw.items()) {
    double v = metric.value;
    if (metric.unit == "ms" || metric.unit == "s")
      v *= k;
    else if (metric.unit == "1/s")
      v /= k;
    m.set(name, v, metric.unit);
  }
  return m;
}

MetricSet counter_metrics(const World& world, const WindowResult& r) {
  MetricSet m;
  const auto& a = r.after;
  const auto& b = r.before;
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto phase_ms = [&](const core::SdcServer::PhaseStat& x,
                      const core::SdcServer::PhaseStat& y) {
    return per(x.total_ms - y.total_ms, static_cast<double>(x.count - y.count));
  };
  const double decisions = static_cast<double>(r.decisions);
  const double updates = static_cast<double>(r.updates);
  const double ops = decisions + updates;

  m.set("crypto.ciphertexts_per_request", per(r.ciphertexts, decisions),
        "count");
  m.set("core.sdc.begin_request_ms", phase_ms(a.sdc.phase1, b.sdc.phase1), "ms");
  m.set("core.sdc.finish_request_ms", phase_ms(a.sdc.phase2, b.sdc.phase2),
        "ms");
  m.set("core.stp.entries_per_decision",
        per(static_cast<double>(a.stp_entries - b.stp_entries), decisions),
        "count");
  m.set("core.sdc.prefilter_ms", phase_ms(a.sdc.prefilter, b.sdc.prefilter),
        "ms");
  const double hits =
      static_cast<double>(a.sdc.prefilter_hits - b.sdc.prefilter_hits);
  const double misses =
      static_cast<double>(a.sdc.prefilter_misses - b.sdc.prefilter_misses);
  m.set("core.sdc.prefilter_hit_ratio", per(hits, hits + misses), "ratio");
  m.set("core.sdc.pu_delta_ms", phase_ms(a.sdc.delta, b.sdc.delta), "ms");
  m.set("core.sdc.delta_cells_per_update",
        per(static_cast<double>(a.sdc.delta_cells - b.sdc.delta_cells),
            static_cast<double>(a.sdc.pu_deltas - b.sdc.pu_deltas)),
        "count");
  m.set("core.sdc.probes_per_update",
        per(static_cast<double>(a.sdc.probes_sent - b.sdc.probes_sent), updates),
        "count");
  m.set("core.stp.probe_slots_per_update",
        per(static_cast<double>(a.stp_probe_slots - b.stp_probe_slots), updates),
        "count");
  const double wal_updates = static_cast<double>(r.wal_updates);
  m.set("store.wal_bytes_per_update",
        per(static_cast<double>(r.wal_bytes), wal_updates), "B");
  m.set("store.wal_records_per_update",
        per(static_cast<double>(r.wal_records), wal_updates), "count");
  m.set("store.snapshots_per_1k_updates",
        per(1e3 * static_cast<double>(a.snapshots - b.snapshots), updates),
        "count");

  const double queries = static_cast<double>(r.pir_decisions);
  const double scan_ms = a.pir_scan_ms - b.pir_scan_ms;
  m.set("pir.scan_ms_per_query", per(scan_ms, queries), "ms");
  // Bytes XOR-folded: each share selects half the rows on average, and
  // every replica folds every share.
  const double scanned_bytes =
      r.rows_fetched * static_cast<double>(world.cfg.pir.replicas) *
      static_cast<double>(r.pir_db_rows) / 2.0 *
      static_cast<double>(r.pir_row_bytes);
  m.set("pir.scan_gbps", per(scanned_bytes / 1e9, scan_ms / 1e3), "GB/s");
  m.set("pir.rows_fetched_per_query", per(r.rows_fetched, queries), "count");
  m.set("pir.reply_bytes_per_query",
        per(static_cast<double>(r.pir_reply_bytes), queries), "B");

  m.set("net.frames_per_op",
        per(static_cast<double>(
                (a.client_net.frames_sent - b.client_net.frames_sent) +
                (a.client_net.frames_received - b.client_net.frames_received)),
            ops),
        "count");
  m.set("net.reads_paused",
        static_cast<double>(a.server_net.reads_paused - b.server_net.reads_paused),
        "count");
  const double wall_ms =
      std::chrono::duration<double, std::milli>(a.wall - b.wall).count();
  m.set("exec.cores_busy", per(a.cpu_ms - b.cpu_ms, wall_ms), "cores");
  m.set("bench.generator_late_p99_ms", percentile(r.late_ms, 99), "ms");
  m.set("bench.host_ref_ms", mean(r.reference_ms), "ms");
  m.set("bench.error_ratio",
        per(static_cast<double>(r.failed), static_cast<double>(r.attempted())),
        "ratio");
  return m;
}

}  // namespace pisa::bench
