// The TCP deployment under test, its response hook, its counters and the
// CPUs its threads run on.
#include <sched.h>
#include <sys/resource.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace pisa::bench {

namespace fs = std::filesystem;

namespace {

std::chrono::microseconds as_us(double ms) {
  return std::chrono::microseconds(static_cast<std::int64_t>(ms * 1e3));
}

}  // namespace

void ArrivalLog::record(std::uint64_t request_id) {
  const auto now = Clock::now();
  {
    std::lock_guard<std::mutex> lk(mu_);
    at_[request_id] = now;
    done_.emplace_back(request_id, now);
    ++count_;
    last_ = now;
  }
  cv_.notify_all();
}

std::optional<Clock::time_point> ArrivalLog::wait(std::uint64_t request_id,
                                                  double timeout_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!cv_.wait_for(lk, as_us(timeout_ms),
                    [&] { return at_.contains(request_id); }))
    return std::nullopt;
  const auto t = at_[request_id];
  at_.erase(request_id);
  return t;
}

void ArrivalLog::skip_completed() {
  std::lock_guard<std::mutex> lk(mu_);
  at_.clear();
  done_.clear();
}

std::optional<std::pair<std::uint64_t, Clock::time_point>>
ArrivalLog::next_completed(double timeout_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!cv_.wait_for(lk, as_us(timeout_ms), [&] { return !done_.empty(); }))
    return std::nullopt;
  const auto next = done_.front();
  done_.pop_front();
  at_.erase(next.first);
  return next;
}

std::optional<Clock::time_point> ArrivalLog::wait_count(std::uint64_t count,
                                                        double timeout_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!cv_.wait_for(lk, as_us(timeout_ms), [&] { return count_ >= count; }))
    return std::nullopt;
  return last_;
}

Deployment::Deployment(const World& world, const Inputs& in,
                       const fs::path& store_dir)
    : world_(world),
      store_dir_(store_dir),
      server_rng_(kServerKeySeed),
      client_rng_(kClientKeySeed) {
  fs::remove_all(store_dir_);
  fs::create_directories(store_dir_);
  auto cfg = world.cfg;
  cfg.durability.dir = store_dir_.string();

  server_ = std::make_unique<rpc::RpcServer>(cfg, server_rng_);
  client_ = std::make_unique<rpc::RpcClient>(cfg, server_->group_key(),
                                             "127.0.0.1", server_->port(),
                                             client_rng_);
  client_->set_response_hook(
      [this](std::uint64_t request_id) { arrivals_.record(request_id); });
  for (const auto& site : world.sites) client_->add_pu(site);
  for (std::uint32_t su = 1; su <= world.num_sus; ++su) client_->add_su(su);
  driver_ = std::make_unique<rpc::TcpScenarioDriver>(
      *server_, *client_, cfg, world.sites, world.model, 30'000.0);
  // Initial columns go through the scenario driver too, so its fold barrier
  // counts every update the SDC has seen.
  for (const auto& site : world.sites)
    pu_send(PuEvent{site.pu_id, in.initial[site.pu_id]}, /*use_delta=*/false);
}

Deployment::~Deployment() {
  try {
    drain();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pisa_bench: teardown: %s\n", e.what());
  }
  driver_.reset();
  client_.reset();
  server_.reset();
  std::error_code ec;
  fs::remove_all(store_dir_, ec);
}

bool Deployment::pu_send(const PuEvent& ev, bool use_delta) {
  const bool sent = driver_->pu_send(ev.pu_id, ev.tuning, use_delta);
  if (sent && world_.pir()) ++pir_updates_sent_;
  return sent;
}

void Deployment::drain() {
  constexpr double kTimeoutMs = 30'000.0;
  const auto deadline = Clock::now() + as_us(kTimeoutMs);
  for (std::size_t i = 0; world_.pir() && i < world_.cfg.pir.replicas; ++i) {
    while (server_->pir_replica(i)->stats().updates < pir_updates_sent_) {
      if (Clock::now() > deadline)
        throw std::runtime_error("PIR replica updates never arrived");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  server_->transport().quiesce(kTimeoutMs);
}

rpc::RpcClient::PreparedRequest EncryptedTemplate::with_id(
    std::uint64_t request_id) const {
  core::SuRequestMsg m = msg;
  m.request_id = request_id;
  return {request_id, m.su_id, m.encode(ciphertext_width)};
}

Counters read_counters(Deployment& d, const World& world) {
  Counters c;
  auto& server = d.server();
  c.sdc = server.sdc().stats();
  c.stp_entries = server.stp().entries_converted();
  c.stp_probe_slots = server.stp().probe_slots_signed();
  c.snapshots = server.sdc().state().snapshots_written();
  if (world.pir()) {
    for (std::size_t i = 0; i < world.cfg.pir.replicas; ++i) {
      if (auto* rep = server.pir_replica(i))
        c.pir_scan_ms += rep->stats().scan_total_ms;
    }
  }
  c.client_net = d.client().transport().stats();
  c.server_net = server.transport().stats();
  c.cpu_ms = process_cpu_ms();
  c.wall = Clock::now();
  return c;
}

int CpuPlan::system(std::size_t round) const {
  return cpus.empty() ? -1 : cpus[round % cpus.size()];
}

int CpuPlan::generator(std::size_t round) const {
  return system(round + 1);
}

CpuPlan plan_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return {};
  CpuPlan plan;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) plan.cpus.push_back(c);
  run_on_cpu(plan.system(0));
  return plan;
}

namespace {

void set_affinity(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // A thread that exited since it was listed is no longer there to move.
  if (::sched_setaffinity(tid, sizeof set, &set) != 0 && errno != ESRCH)
    throw std::runtime_error("cannot move a thread to CPU " +
                             std::to_string(cpu));
}

}  // namespace

void run_on_cpu(int cpu) {
  if (cpu >= 0) set_affinity(0, cpu);
}

void move_process_to_cpu(int cpu) {
  if (cpu < 0) return;
  for (const auto& task : fs::directory_iterator("/proc/self/task"))
    set_affinity(static_cast<pid_t>(std::stol(task.path().filename().string())),
                 cpu);
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

// VmHWM, not getrusage's ru_maxrss: ru_maxrss survives exec, so a process
// started by fork and exec from a larger one (python's subprocess) reports
// the parent's resident set until its own grows past it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace pisa::bench
