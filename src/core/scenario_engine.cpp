#include "core/scenario_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace pisa::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

std::pair<std::uint32_t, std::uint32_t> disclosed_range(
    const watch::QMatrix& f, std::uint32_t su_block, std::uint32_t pad) {
  std::uint32_t lo = su_block, hi = su_block + 1;
  for (std::uint32_t c = 0; c < f.channels(); ++c) {
    for (std::uint32_t b = 0; b < f.blocks(); ++b) {
      if (f.at(radio::ChannelId{c}, radio::BlockId{b}) == 0) continue;
      lo = std::min(lo, b);
      hi = std::max(hi, b + 1);
    }
  }
  lo = lo > pad ? lo - pad : 0;
  hi = std::min<std::uint32_t>(hi + pad,
                               static_cast<std::uint32_t>(f.blocks()));
  return {lo, hi};
}

// ---------------------------------------------------------------------------
// ScenarioDriver

ScenarioDriver::ScenarioDriver(Infrastructure& infra, ClientSession& session,
                               const radio::PathLossModel& model,
                               double timeout_ms)
    : infra_(infra),
      session_(session),
      model_(model),
      d_c_m_(watch::exclusion_radius_m(infra.config().watch, model)),
      timeout_ms_(timeout_ms) {}

SuDecision ScenarioDriver::su_request(const watch::SuRequest& request,
                                      std::uint32_t range_pad) {
  const auto f = watch::build_su_f_matrix(
      infra_.config().watch, session_.pu_sites(), request.block,
      request.eirp_mw_per_channel, model_, d_c_m_);
  const auto range = disclosed_range(f, request.block.index, range_pad);
  if (infra_.config().query_mode == QueryMode::kPir) {
    const auto query =
        session_.submit_pir(request.su_id, range.first, range.second);
    deliver();
    return session_.decide_pir(query, f, timeout_ms_);
  }
  const auto prepared = session_.prepare_request(request.su_id, f, range);
  session_.submit(prepared);
  deliver();
  return session_.decide(prepared, &infra_.sdc().license_key(), timeout_ms_);
}


// ---------------------------------------------------------------------------
// ScenarioEngine

ScenarioEngine::ScenarioEngine(const PisaConfig& cfg,
                               std::vector<watch::PuSite> sites,
                               const radio::PathLossModel& model,
                               const ScenarioConfig& scenario,
                               ScenarioDriver& driver)
    : cfg_(cfg),
      oracle_(cfg.watch, std::move(sites), model),
      sc_(scenario),
      driver_(driver),
      area_(cfg.watch.make_area()),
      stream_(sc_.seed) {
  if (oracle_.sites().empty())
    throw std::invalid_argument("ScenarioEngine: needs at least one PU site");
  if (sc_.ticks == 0)
    throw std::invalid_argument("ScenarioEngine: needs at least one tick");
  if (!(sc_.signal_mw_lo > 0) || sc_.signal_mw_hi < sc_.signal_mw_lo)
    throw std::invalid_argument("ScenarioEngine: bad signal interval");
  if (sc_.crash_at_tick && sc_.restart_at_tick &&
      *sc_.restart_at_tick <= *sc_.crash_at_tick)
    throw std::invalid_argument("ScenarioEngine: restart must follow crash");

  pus_.resize(oracle_.sites().size());

  // Seed the SU fleet: uniform position, uniform heading, fixed speed. All
  // draws happen here, in index order, before any protocol traffic.
  const double w = static_cast<double>(area_.cols()) * area_.block_size_m();
  const double h = static_cast<double>(area_.rows()) * area_.block_size_m();
  sus_.resize(sc_.num_sus);
  for (auto& su : sus_) {
    su.vehicle.pos = radio::Point{frac() * w, frac() * h};
    const double heading = frac() * 6.283185307179586;
    su.vehicle.vx = sc_.su_speed_mps * std::cos(heading);
    su.vehicle.vy = sc_.su_speed_mps * std::sin(heading);
  }
}

double ScenarioEngine::frac() {
  // 53 uniform mantissa bits -> [0, 1).
  return static_cast<double>(stream_.next_u64() >> 11) * 0x1.0p-53;
}

std::uint32_t ScenarioEngine::pick(std::uint32_t n) {
  return static_cast<std::uint32_t>(frac() * n);
}

watch::PuTuning ScenarioEngine::tuning_of(const PuState& pu) const {
  watch::PuTuning t;
  if (pu.channel) t.channel = radio::ChannelId{*pu.channel};
  t.signal_mw = pu.signal_mw;
  return t;
}

void ScenarioEngine::send_pu(std::size_t i, ScenarioResult& result) {
  // The oracle tracks the world, not the SDC: a tuning made while the SDC
  // is down reaches the deployment with the post-restart resync.
  const auto pu_id = oracle_.sites()[i].pu_id;
  const auto tuning = tuning_of(pus_[i]);
  oracle_.pu_update(pu_id, tuning);
  if (!driver_.sdc_running()) return;
  const auto start = Clock::now();
  if (driver_.pu_send(pu_id, tuning, sc_.use_delta))
    ++result.updates_sent;
  result.update_wall_ms += ms_since(start);
}

void ScenarioEngine::resync_all_pus(ScenarioResult& result) {
  // Deterministic id order. On the full path this re-sends every column; on
  // the delta path each client diffs against its delivered footprint, so
  // only the drift accumulated while the SDC was down goes over the wire
  // (often nothing).
  for (std::size_t i = 0; i < pus_.size(); ++i) send_pu(i, result);
}

void ScenarioEngine::run_requests(std::uint32_t tick, ScenarioResult& result,
                                  TickOutcome& outcome) {
  for (std::uint32_t id = 0; id < sc_.num_sus; ++id) {
    auto& su = sus_[id];
    if (su.license_expires && tick < *su.license_expires) continue;  // licensed
    su.license_expires.reset();
    if (!driver_.sdc_running()) continue;

    watch::SuRequest req;
    req.su_id = id;
    req.block = radio::block_of(su.vehicle, area_);
    req.eirp_mw_per_channel.assign(cfg_.watch.channels, sc_.su_eirp_mw);

    ++result.requests;
    const auto res = driver_.su_request(req, sc_.request_range_blocks);
    if (!res.completed()) {
      ++result.transport_failures;
      continue;
    }
    if (res.granted != oracle_.process_request(req).granted)
      ++result.oracle_mismatches;
    if (res.granted) {
      ++result.grants;
      su.license_expires = tick + sc_.license_ttl_ticks;
      outcome.grants.push_back({id, res.license.serial});
    } else {
      ++result.denials;
      outcome.denials.push_back(id);
      if (res.fast_denied) {
        ++result.fast_denials;
        outcome.fast_denials.push_back(id);
      }
    }
  }
}

ScenarioResult ScenarioEngine::run() {
  ScenarioResult result;
  const auto run_start = Clock::now();
  if (driver_.sdc_running())
    last_wal_bytes_ = driver_.settled_state().wal_bytes();

  for (std::uint32_t tick = 0; tick < sc_.ticks; ++tick) {
    TickOutcome outcome;
    outcome.tick = tick;

    // Chaos schedule first: the tick sees the world in its post-crash /
    // post-recovery state.
    if (sc_.crash_at_tick && tick == *sc_.crash_at_tick) driver_.crash_sdc();
    if (sc_.restart_at_tick && tick == *sc_.restart_at_tick) {
      driver_.restart_sdc();
      last_wal_bytes_ = driver_.settled_state().wal_bytes();
      resync_all_pus(result);
    }

    if (tick == 0) {
      // Bring every receiver up with an initial tuning. Draw order: channel
      // then signal, per PU in site order.
      for (std::size_t i = 0; i < pus_.size(); ++i) {
        pus_[i].channel = pick(static_cast<std::uint32_t>(cfg_.watch.channels));
        pus_[i].signal_mw =
            sc_.signal_mw_lo + frac() * (sc_.signal_mw_hi - sc_.signal_mw_lo);
        send_pu(i, result);
      }
    } else {
      // Event draws, fixed order: churn, move, toggle. Every branch below
      // consumes the same number of stream draws regardless of whether the
      // SDC is up, so delta and full runs stay draw-aligned even when their
      // transports differ.
      if (frac() < sc_.p_churn) {
        const std::uint32_t i = pick(static_cast<std::uint32_t>(pus_.size()));
        auto& pu = pus_[i];
        const auto ch = pick(static_cast<std::uint32_t>(cfg_.watch.channels));
        pu.signal_mw =
            sc_.signal_mw_lo + frac() * (sc_.signal_mw_hi - sc_.signal_mw_lo);
        if (pu.channel) {
          pu.channel = ch;
          ++result.pu_events;
          send_pu(i, result);
        }
      }
      if (frac() < sc_.p_pu_move) {
        const std::uint32_t i = pick(static_cast<std::uint32_t>(pus_.size()));
        const auto b = pick(static_cast<std::uint32_t>(area_.num_blocks()));
        const auto site = oracle_.sites()[i];
        if (b != site.block.index) {
          ++result.pu_events;
          oracle_.pu_move(site.pu_id, radio::BlockId{b});
          driver_.pu_move(site.pu_id, b);
          if (pus_[i].channel) send_pu(i, result);
        }
      }
      if (frac() < sc_.p_toggle) {
        const std::uint32_t i = pick(static_cast<std::uint32_t>(pus_.size()));
        auto& pu = pus_[i];
        if (pu.channel) {
          pu.channel.reset();  // receiver off: tuning_of sends channel=nullopt
        } else {
          pu.channel = pick(static_cast<std::uint32_t>(cfg_.watch.channels));
        }
        ++result.pu_events;
        send_pu(i, result);
      }
      // Revocation: always one draw; victim chosen among licensed SUs.
      if (frac() < sc_.p_revoke) {
        std::vector<std::uint32_t> licensed;
        for (std::uint32_t id = 0; id < sc_.num_sus; ++id)
          if (sus_[id].license_expires && tick < *sus_[id].license_expires)
            licensed.push_back(id);
        if (!licensed.empty())
          sus_[licensed[pick(static_cast<std::uint32_t>(licensed.size()))]]
              .license_expires.reset();
      }
      // Vehicular mobility, then the request round from the new positions.
      for (auto& su : sus_)
        radio::advance(su.vehicle, area_, sc_.tick_seconds);
    }

    run_requests(tick, result, outcome);

    outcome.sdc_up = driver_.sdc_running();
    if (outcome.sdc_up) {
      const auto& state = driver_.settled_state();
      outcome.exhausted_state = state.exhausted_state_bytes();
      const std::uint64_t wal = state.wal_bytes();
      if (wal > last_wal_bytes_) result.wal_bytes += wal - last_wal_bytes_;
      last_wal_bytes_ = wal;
    }
    result.ticks.push_back(std::move(outcome));
  }

  if (driver_.sdc_running())
    result.delta_cells = driver_.settled_state().delta_cells_folded();
  result.total_wall_ms = ms_since(run_start);
  return result;
}

}  // namespace pisa::core
