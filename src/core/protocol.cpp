#include "core/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "crypto/key_codec.hpp"
#include "exec/thread_pool.hpp"

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
    : model_(model), rng_(rng),
      d_c_m_(watch::exclusion_radius_m(cfg.watch, model)),
      reliable_(reliable_layer(cfg, net_)),
      infra_(cfg, transport(), rng),
      inbox_(cfg.pir.replicas) {
  // Each PU takes the full public E matrix: a mobile receiver must be able
  // to recompute w = T − E at whatever block it drives into.
  auto e = watch::make_e_matrix(cfg.watch);
  for (const auto& site : sites) {
    auto [it, inserted] = pus_.emplace(
        site.pu_id,
        std::make_unique<PuClient>(site, cfg, stp().group_key(), e, rng_));
    if (!inserted)
      throw std::invalid_argument("PisaSystem: duplicate PU id");
    it->second->set_thread_pool(thread_pool());
    // PU endpoints receive nothing at the application layer, but the
    // reliable transport needs them registered so ACKs for their updates
    // come home.
    transport().register_endpoint(
        "pu_" + std::to_string(site.pu_id), [](const net::Message& msg) {
          throw std::runtime_error("PU endpoint: unexpected message " + msg.type);
        });
  }
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
  if (sus_.contains(su_id))
    throw std::invalid_argument("PisaSystem: duplicate SU id");
  auto client =
      std::make_unique<SuClient>(su_id, config(), stp().group_key(), rng_);
  client->set_thread_pool(thread_pool());
  // The endpoint must exist before the key upload: under the reliable
  // transport the STP's ACK comes back to it. The last frame's arrival is
  // the request's completion time.
  transport().register_endpoint(su_name(su_id), [this](const net::Message& msg) {
    arrival_us_.insert_or_assign(inbox_.deliver(msg), net_.now_us());
  });
  // Paper §III-C: the SU uploads pk_j to the STP; the SDC retrieves it from
  // the STP's directory on demand (asynchronously, during the first request).
  KeyRegisterMsg reg{su_id, crypto::serialize(client->public_key())};
  transport().send({su_name(su_id), "stp", kMsgKeyRegister, reg.encode()});
  net_.run();
  if (precompute > 0) client->precompute_randomizers(precompute);
  if (config().query_mode == QueryMode::kPir)
    pir_clients_.emplace(
        su_id, std::make_unique<pir::PirClient>(
                   su_id, config().pir.replicas,
                   config().watch.make_area().num_blocks(), rng_));
  auto& ref = *client;
  sus_.emplace(su_id, std::move(client));
  return ref;
}

SuClient& PisaSystem::su(std::uint32_t su_id) {
  auto it = sus_.find(su_id);
  if (it == sus_.end()) throw std::out_of_range("PisaSystem: unknown SU");
  return *it->second;
}

PuClient& PisaSystem::pu(std::uint32_t pu_id) {
  auto it = pus_.find(pu_id);
  if (it == pus_.end()) throw std::out_of_range("PisaSystem: unknown PU");
  return *it->second;
}

void PisaSystem::pu_update(std::uint32_t pu_id, const watch::PuTuning& tuning) {
  auto& client = pu(pu_id);
  // PIR mode: build the plaintext column before make_update commits the
  // footprint (it is const and consumes no randomness either way), and ship
  // it to every replica alongside the encrypted column.
  std::optional<pir::PirUpdateMsg> pir_msg;
  if (config().query_mode == QueryMode::kPir)
    pir_msg = client.make_pir_update(tuning);
  auto update = client.make_update(tuning);
  transport().send({"pu_" + std::to_string(pu_id), "sdc", kMsgPuUpdate,
                    update.encode(stp().group_key().ciphertext_bytes())});
  if (pir_msg) {
    auto bytes = pir_msg->encode();
    for (std::size_t i = 0; i < config().pir.replicas; ++i)
      transport().send({"pu_" + std::to_string(pu_id), pir::replica_name(i),
                        pir::kMsgPirUpdate, bytes});
  }
  net_.run();
}

bool PisaSystem::pu_delta(std::uint32_t pu_id, const watch::PuTuning& tuning) {
  auto& client = pu(pu_id);
  std::optional<pir::PirUpdateMsg> pir_msg;
  if (config().query_mode == QueryMode::kPir)
    pir_msg = client.make_pir_update(tuning);
  auto delta = client.make_delta(tuning);
  if (!delta) return false;
  transport().send({"pu_" + std::to_string(pu_id), "sdc", kMsgPuDelta,
                    delta->encode(stp().group_key().ciphertext_bytes())});
  // Replicas always take the full current column — they diff against their
  // stored copy, so a delta-sized event still refreshes only touched rows.
  if (pir_msg) {
    auto bytes = pir_msg->encode();
    for (std::size_t i = 0; i < config().pir.replicas; ++i)
      transport().send({"pu_" + std::to_string(pu_id), pir::replica_name(i),
                        pir::kMsgPirUpdate, bytes});
  }
  net_.run();
  return true;
}

void PisaSystem::pu_move(std::uint32_t pu_id, std::uint32_t block) {
  pu(pu_id).move_to(block);
}

watch::QMatrix PisaSystem::build_f(const watch::SuRequest& request) const {
  std::vector<watch::PuSite> sites;
  sites.reserve(pus_.size());
  for (const auto& [id, client] : pus_) sites.push_back(client->site());
  return watch::build_su_f_matrix(config().watch, sites, request.block,
                                  request.eirp_mw_per_channel, model_, d_c_m_);
}

std::optional<double> PisaSystem::collect(std::uint64_t rid,
                                          std::uint32_t su_id, double t_send,
                                          std::size_t failures_before,
                                          RequestOutcome& out) {
  auto answer = inbox_.take(rid);
  if (!answer.fast_denied && !answer.response) {
    // Graceful degradation: retries are bounded, so a quiescent network
    // with no response means some hop exhausted its budget (or an endpoint
    // vanished). Report a typed failure instead of hanging or throwing.
    out.status = RequestOutcome::Status::kTransportFailed;
    out.failure = "no response delivered" + gave_up_since(failures_before);
    return std::nullopt;
  }
  auto& client = su(su_id);
  if (answer.fast_denied) {
    // §3.8 prefilter denial: no SuResponseMsg exists for this rid.
    out.fast_denied = true;
    out.granted = client.process_fast_deny(FastDenyMsg{rid}).granted;
  } else {
    auto outcome = client.process_response(*answer.response, sdc().license_key());
    out.granted = outcome.granted;
    out.license = outcome.license;
    out.signature = outcome.signature;
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

PisaSystem::RequestOutcome PisaSystem::su_request(
    const watch::SuRequest& request,
    std::optional<std::pair<std::uint32_t, std::uint32_t>> range, PrepMode mode) {
  std::uint64_t rid = next_request_id_++;
  auto f = build_f(request);
  std::uint32_t lo = range ? range->first : 0;
  std::uint32_t hi = range ? range->second : static_cast<std::uint32_t>(f.blocks());
  if (config().query_mode == QueryMode::kPir)
    return su_request_pir(request.su_id, f, rid, lo, hi);
  auto msg = su(request.su_id).prepare_request(f, rid, lo, hi, mode);
  const auto name = su_name(request.su_id);

  auto su_sdc_before = net_.stats(name, "sdc").bytes;
  auto sdc_stp_before = net_.stats("sdc", "stp").bytes;
  auto stp_sdc_before = net_.stats("stp", "sdc").bytes;
  auto sdc_su_before = net_.stats("sdc", name).bytes;

  std::size_t failures_before = failure_count();
  double t_send = net_.now_us();
  transport().send({name, "sdc", kMsgSuRequest,
                    msg.encode(stp().group_key().ciphertext_bytes())});
  net_.run();
  double t_done = net_.now_us();
  // The simulation's idle time: keep every SU's randomizer source one
  // largest conversion ahead, so the next conversion hits the cache.
  refill_randomizers();

  RequestOutcome out;
  out.request_bytes = net_.stats(name, "sdc").bytes - su_sdc_before;
  out.convert_bytes = net_.stats("sdc", "stp").bytes - sdc_stp_before;
  out.convert_reply_bytes = net_.stats("stp", "sdc").bytes - stp_sdc_before;
  out.response_bytes = net_.stats("sdc", name).bytes - sdc_su_before;
  out.latency_us = t_done - t_send;
  collect(rid, request.su_id, t_send, failures_before, out);
  return out;
}

PisaSystem::RequestOutcome PisaSystem::su_request_pir(std::uint32_t su_id,
                                                      const watch::QMatrix& f,
                                                      std::uint64_t rid,
                                                      std::uint32_t lo,
                                                      std::uint32_t hi) {
  auto it = pir_clients_.find(su_id);
  if (it == pir_clients_.end())
    throw std::out_of_range("PisaSystem: unknown SU");
  auto& client = *it->second;
  auto queries = client.make_queries(rid, lo, hi);

  const auto name = su_name(su_id);
  const std::size_t replicas = config().pir.replicas;
  std::vector<std::size_t> up_before(replicas), down_before(replicas);
  for (std::size_t i = 0; i < replicas; ++i) {
    up_before[i] = net_.stats(name, pir::replica_name(i)).bytes;
    down_before[i] = net_.stats(pir::replica_name(i), name).bytes;
  }
  std::size_t failures_before = failure_count();

  double t_send = net_.now_us();
  for (std::size_t i = 0; i < replicas; ++i)
    transport().send({name, pir::replica_name(i), pir::kMsgPirQuery,
                      queries[i].encode()});
  net_.run();

  RequestOutcome out;
  for (std::size_t i = 0; i < replicas; ++i) {
    out.request_bytes += net_.stats(name, pir::replica_name(i)).bytes - up_before[i];
    out.response_bytes +=
        net_.stats(pir::replica_name(i), name).bytes - down_before[i];
  }
  out.latency_us = net_.now_us() - t_send;
  auto got = inbox_.take(rid).pir_replies;
  if (auto arrived = arrival_us_.extract(rid); !arrived.empty())
    out.latency_us = arrived.mapped() - t_send;

  if (got.size() != replicas) {
    // A replica vanished (crash) or exhausted its retry budget: XOR
    // reconstruction from ℓ−1 shares is garbage, so this is a typed
    // delivery failure — never a wrong answer, never a hang.
    out.status = RequestOutcome::Status::kTransportFailed;
    out.failure = "got " + std::to_string(got.size()) + "/" +
                  std::to_string(replicas) + " PIR replies" +
                  gave_up_since(failures_before);
    return out;
  }
  try {
    out.granted = client.decide(got, config().watch, f, lo).granted;
  } catch (const std::overflow_error&) {
    throw;  // F·X headroom: fails loud, exactly like the plaintext oracle
  } catch (const std::runtime_error& e) {
    // Version/shape divergence across replicas: refuse the reconstruction
    // and surface it as a delivery failure the caller can retry.
    out.status = RequestOutcome::Status::kTransportFailed;
    out.failure = e.what();
  }
  return out;
}

std::vector<PisaSystem::RequestOutcome> PisaSystem::su_request_many(
    const std::vector<watch::SuRequest>& requests, PrepMode mode,
    MultiRequestStats* stats) {
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
  struct Prepared {
    std::uint64_t rid = 0;
    std::uint32_t su_id = 0;
    std::vector<std::uint8_t> bytes;
  };

  // Phase A (SU side, independent parties): every request is built and
  // encrypted before anything is sent — the burst then lands on the SDC at
  // one virtual instant, in submission order (equal sizes, FIFO tiebreak).
  auto t_prep = std::chrono::steady_clock::now();
  std::vector<Prepared> prepared;
  prepared.reserve(requests.size());
  for (const auto& r : requests) {
    auto& client = su(r.su_id);
    auto f = build_f(r);
    Prepared p;
    p.rid = next_request_id_++;
    p.su_id = r.su_id;
    auto msg = client.prepare_request(
        f, p.rid, 0, static_cast<std::uint32_t>(f.blocks()), mode);
    p.bytes = msg.encode(stp().group_key().ciphertext_bytes());
    prepared.push_back(std::move(p));
  }
  double prep_ms = wall_ms_since(t_prep);

  const auto& stp_log = net_.audit_log("stp");
  std::size_t stp_log_before = stp_log.size();
  auto sdc_stp_before = net_.stats("sdc", "stp").bytes;
  auto stp_sdc_before = net_.stats("stp", "sdc").bytes;
  std::size_t req_bytes_before = 0, resp_bytes_before = 0;
  for (const auto& p : prepared) {
    req_bytes_before += net_.stats(su_name(p.su_id), "sdc").bytes;
    resp_bytes_before += net_.stats("sdc", su_name(p.su_id)).bytes;
  }
  std::size_t failures_before = failure_count();

  double t_send = net_.now_us();
  for (auto& p : prepared)
    transport().send(
        {su_name(p.su_id), "sdc", kMsgSuRequest, std::move(p.bytes)});
  auto t_serve = std::chrono::steady_clock::now();
  net_.run();
  double serve_ms = wall_ms_since(t_serve);
  refill_randomizers();

  std::vector<RequestOutcome> outs(prepared.size());
  double last_arrival = t_send;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    if (auto arrived = collect(prepared[i].rid, prepared[i].su_id, t_send,
                               failures_before, outs[i]))
      last_arrival = std::max(last_arrival, *arrived);
  }

  if (stats != nullptr) {
    stats->prep_wall_ms = prep_ms;
    stats->serve_wall_ms = serve_ms;
    // Response arrivals, not now_us(): trailing watchdog/retransmission
    // timers fire long after the last response and must not count.
    stats->makespan_us = last_arrival - t_send;
    stats->convert_msgs = 0;
    for (std::size_t i = stp_log_before; i < stp_log.size(); ++i) {
      const auto& rec = stp_log[i];
      if (rec.type == kMsgConvertRequest || rec.type == kMsgConvertBatch)
        ++stats->convert_msgs;
    }
    stats->convert_bytes = net_.stats("sdc", "stp").bytes - sdc_stp_before;
    stats->convert_reply_bytes = net_.stats("stp", "sdc").bytes - stp_sdc_before;
    std::size_t req_bytes_after = 0, resp_bytes_after = 0;
    for (const auto& p : prepared) {
      req_bytes_after += net_.stats(su_name(p.su_id), "sdc").bytes;
      resp_bytes_after += net_.stats("sdc", su_name(p.su_id)).bytes;
    }
    stats->request_bytes = req_bytes_after - req_bytes_before;
    stats->response_bytes = resp_bytes_after - resp_bytes_before;
  }
  return outs;
}

}  // namespace pisa::core
