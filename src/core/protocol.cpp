#include "core/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <string>

namespace pisa::core {

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The reliable layer over `net`, or null on the perfect-delivery bus.
/// Validates `cfg` first, so a bad knob is reported by PisaConfig.
std::unique_ptr<net::ReliableTransport> reliable_layer(
    const PisaConfig& cfg, net::SimulatedNetwork& net) {
  cfg.validate();
  if (!cfg.reliability.enabled) return nullptr;
  return std::make_unique<net::ReliableTransport>(net, net::ReliablePolicy{});
}

}  // namespace

PisaSystem::PisaSystem(const PisaConfig& cfg,
                       const std::vector<watch::PuSite>& sites,
                       const radio::PathLossModel& model, bn::RandomSource& rng)
    : model_(model),
      d_c_m_(watch::exclusion_radius_m(cfg.watch, model)),
      reliable_(reliable_layer(cfg, net_)),
      infra_(cfg, transport(), rng),
      session_(cfg, infra_.stp().group_key(), transport(), rng,
               infra_.thread_pool()) {
  // The frame that completes an answer marks the request's completion.
  session_.set_response_hook([this](std::uint64_t rid) {
    arrival_us_.insert_or_assign(rid, net_.now_us());
  });
  for (const auto& site : sites) session_.add_pu(site);
}

net::Transport& PisaSystem::transport() {
  if (reliable_) return *reliable_;
  return net_;
}

std::size_t PisaSystem::failure_count() const {
  return reliable_ ? reliable_->failures().size() : 0;
}

std::string PisaSystem::gave_up_since(std::size_t since) const {
  std::string out;
  for (std::size_t i = since; i < failure_count(); ++i) {
    const auto& f = reliable_->failures()[i];
    out += "; gave up on " + f.type + " " + f.from + "->" + f.to + " seq " +
           std::to_string(f.seq) + " after " + std::to_string(f.attempts) +
           " attempts";
  }
  return out;
}

SuClient& PisaSystem::add_su(std::uint32_t su_id, std::size_t precompute) {
  auto& client = session_.add_su(su_id, precompute);
  net_.run();
  return client;
}

bool PisaSystem::pu_send(std::uint32_t pu_id, const watch::PuTuning& tuning,
                         bool use_delta) {
  auto frames = session_.pu_frames(pu_id, tuning, use_delta);
  if (frames.empty()) return false;
  for (auto& m : frames) transport().send(std::move(m));
  net_.run();
  return true;
}

watch::QMatrix PisaSystem::build_f(const watch::SuRequest& request) const {
  return watch::build_su_f_matrix(config().watch, session_.pu_sites(),
                                  request.block, request.eirp_mw_per_channel,
                                  model_, d_c_m_);
}

std::optional<double> PisaSystem::collect(std::uint64_t rid,
                                          SuDecision decision, double t_send,
                                          std::size_t failures_before,
                                          RequestOutcome& out) {
  static_cast<SuDecision&>(out) = std::move(decision);
  if (!out.completed()) {
    out.failure += gave_up_since(failures_before);
    return std::nullopt;
  }
  // Measure to the answer's arrival, not to quiescence: trailing
  // retransmission timers would otherwise inflate the latency.
  auto arrived = arrival_us_.extract(rid);
  if (arrived.empty()) return std::nullopt;
  out.latency_us = arrived.mapped() - t_send;
  return arrived.mapped();
}

void PisaSystem::refill_randomizers() {
  const auto t0 = std::chrono::steady_clock::now();
  stp().refill_randomizers();
  refill_wall_ms_ += wall_ms_since(t0);
}

void PisaSystem::drain() {
  net_.run();
  refill_randomizers();
}

PisaSystem::RequestOutcome PisaSystem::su_request(
    const watch::SuRequest& request,
    std::optional<std::pair<std::uint32_t, std::uint32_t>> range) {
  auto f = build_f(request);
  if (config().query_mode == QueryMode::kPir) {
    const auto [lo, hi] = ClientSession::disclosed(f, range);
    return su_request_pir(request.su_id, f, lo, hi);
  }
  const auto p = session_.prepare_request(request.su_id, f, range);
  const auto name = ClientSession::su_name(request.su_id);

  auto su_sdc_before = net_.stats(name, "sdc").bytes;
  auto sdc_stp_before = net_.stats("sdc", "stp").bytes;
  auto stp_sdc_before = net_.stats("stp", "sdc").bytes;
  auto sdc_su_before = net_.stats("sdc", name).bytes;

  std::size_t failures_before = failure_count();
  double t_send = net_.now_us();
  session_.submit(p);
  drain();
  double t_done = net_.now_us();

  RequestOutcome out;
  out.request_bytes = net_.stats(name, "sdc").bytes - su_sdc_before;
  out.convert_bytes = net_.stats("sdc", "stp").bytes - sdc_stp_before;
  out.convert_reply_bytes = net_.stats("stp", "sdc").bytes - stp_sdc_before;
  out.response_bytes = net_.stats("sdc", name).bytes - sdc_su_before;
  out.latency_us = t_done - t_send;
  collect(p.request_id, session_.decide(p, issuer()), t_send, failures_before,
          out);
  return out;
}

PisaSystem::RequestOutcome PisaSystem::su_request_pir(std::uint32_t su_id,
                                                      const watch::QMatrix& f,
                                                      std::uint32_t lo,
                                                      std::uint32_t hi) {
  const auto name = ClientSession::su_name(su_id);
  const std::size_t replicas = config().pir.replicas;
  std::vector<std::size_t> up_before(replicas), down_before(replicas);
  for (std::size_t i = 0; i < replicas; ++i) {
    up_before[i] = net_.stats(name, pir::replica_name(i)).bytes;
    down_before[i] = net_.stats(pir::replica_name(i), name).bytes;
  }
  std::size_t failures_before = failure_count();

  double t_send = net_.now_us();
  const auto query = session_.submit_pir(su_id, lo, hi);
  net_.run();

  RequestOutcome out;
  for (std::size_t i = 0; i < replicas; ++i) {
    out.request_bytes += net_.stats(name, pir::replica_name(i)).bytes - up_before[i];
    out.response_bytes +=
        net_.stats(pir::replica_name(i), name).bytes - down_before[i];
  }
  out.latency_us = net_.now_us() - t_send;
  collect(query.request_id, session_.decide_pir(query, f), t_send,
          failures_before, out);
  return out;
}

std::vector<PisaSystem::RequestOutcome> PisaSystem::su_request_many(
    const std::vector<watch::SuRequest>& requests, MultiRequestStats* stats) {
  if (config().query_mode == QueryMode::kPir) {
    // No conversion round to coalesce and no modexp-heavy preparation: the
    // burst degenerates to sequential full-range queries.
    auto t0 = std::chrono::steady_clock::now();
    std::vector<RequestOutcome> outs;
    outs.reserve(requests.size());
    MultiRequestStats agg;
    for (const auto& r : requests) {
      auto out = su_request(r);
      agg.request_bytes += out.request_bytes;
      agg.response_bytes += out.response_bytes;
      agg.makespan_us += out.latency_us;
      outs.push_back(std::move(out));
    }
    agg.serve_wall_ms = wall_ms_since(t0);
    if (stats != nullptr) *stats = agg;
    return outs;
  }
  // Phase A (SU side, independent parties): every request is built and
  // encrypted before anything is sent — the burst then lands on the SDC at
  // one virtual instant, in submission order (equal sizes, FIFO tiebreak).
  auto t_prep = std::chrono::steady_clock::now();
  std::vector<PreparedRequest> prepared;
  prepared.reserve(requests.size());
  for (const auto& r : requests)
    prepared.push_back(session_.prepare_request(r.su_id, build_f(r)));
  double prep_ms = wall_ms_since(t_prep);

  const auto& stp_log = net_.audit_log("stp");
  std::size_t stp_log_before = stp_log.size();
  auto sdc_stp_before = net_.stats("sdc", "stp").bytes;
  auto stp_sdc_before = net_.stats("stp", "sdc").bytes;
  // Σ over the burst's SU↔SDC links, each counted once however many of its
  // SU's requests the burst holds.
  std::set<std::string> su_names;
  for (const auto& p : prepared) su_names.insert(ClientSession::su_name(p.su_id));
  const auto su_link_bytes = [&](bool up) {
    std::size_t bytes = 0;
    for (const auto& name : su_names)
      bytes += up ? net_.stats(name, "sdc").bytes : net_.stats("sdc", name).bytes;
    return bytes;
  };
  const std::size_t req_bytes_before = su_link_bytes(true);
  const std::size_t resp_bytes_before = su_link_bytes(false);
  std::size_t failures_before = failure_count();

  double t_send = net_.now_us();
  for (const auto& p : prepared) session_.submit(p);
  auto t_serve = std::chrono::steady_clock::now();
  net_.run();
  double serve_ms = wall_ms_since(t_serve);
  refill_randomizers();

  std::vector<RequestOutcome> outs(prepared.size());
  double last_arrival = t_send;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    if (auto arrived =
            collect(prepared[i].request_id, session_.decide(prepared[i], issuer()),
                    t_send, failures_before, outs[i]))
      last_arrival = std::max(last_arrival, *arrived);
  }

  if (stats != nullptr) {
    stats->prep_wall_ms = prep_ms;
    stats->serve_wall_ms = serve_ms;
    // Response arrivals, not now_us(): trailing watchdog/retransmission
    // timers fire long after the last response and must not count.
    stats->makespan_us = last_arrival - t_send;
    stats->convert_msgs = static_cast<std::size_t>(std::count_if(
        stp_log.begin() + static_cast<std::ptrdiff_t>(stp_log_before),
        stp_log.end(),
        [](const auto& rec) { return rec.type == kMsgConvertBatch; }));
    stats->convert_bytes = net_.stats("sdc", "stp").bytes - sdc_stp_before;
    stats->convert_reply_bytes = net_.stats("stp", "sdc").bytes - stp_sdc_before;
    stats->request_bytes = su_link_bytes(true) - req_bytes_before;
    stats->response_bytes = su_link_bytes(false) - resp_bytes_before;
  }
  return outs;
}

}  // namespace pisa::core
