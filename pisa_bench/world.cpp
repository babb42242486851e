// Worlds and seeded input streams.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "core/scenario_engine.hpp"
#include "radio/units.hpp"

namespace pisa::bench {

const std::vector<WorkloadInfo>& all_workloads() {
  static const std::vector<WorkloadInfo> list{
      {WorkloadId::kPaillierOpen, "paillier_open"},
      {WorkloadId::kPirPaper, "pir_paper"},
      {WorkloadId::kPirTown, "pir_town"},
      {WorkloadId::kPuChurn, "pu_churn"},
  };
  return list;
}

std::optional<WorkloadId> parse_workload(std::string_view name) {
  for (const auto& w : all_workloads())
    if (name == w.name) return w.id;
  return std::nullopt;
}

const char* workload_name(WorkloadId id) {
  for (const auto& w : all_workloads())
    if (w.id == id) return w.name;
  return "?";
}

namespace {

/// Settings shared by both worlds: n = 1024 Paillier keys, a 512-bit RSA
/// license key, four slots per ciphertext, the denial filter and WAL
/// durability on. Everything else keeps its default, including one exec
/// lane: with two, exec::ThreadPool::parallel_for can return (destroying its
/// stack Job) while the worker that finished the last task is still about to
/// lock job.done_m, and pir_town's thousands of small scans per second hit
/// that within seconds.
core::PisaConfig base_config() {
  core::PisaConfig cfg;
  cfg.paillier_bits = 1024;
  cfg.rsa_bits = 512;
  cfg.blind_bits = 128;
  cfg.pack_slots = 4;
  cfg.denial_filter.enabled = true;
  cfg.durability.enabled = true;
  cfg.durability.dir = "unset";  // each Deployment points it at its own dir
  return cfg;
}

}  // namespace

std::unique_ptr<World> make_world(WorkloadId id) {
  auto w = std::make_unique<World>();
  w->cfg = base_config();
  if (id == WorkloadId::kPirPaper) {
    // The paper's Table I scale: C = 100, a 20 × 30 grid of 10 m blocks,
    // six receivers in rows 7–12. SUs stand in that band and ask for four
    // channels at EIRPs that reach every receiver's block, so each request
    // discloses the same 162-row span (a PIR request fetches 162 of the 600
    // rows) and is denied only when a receiver watches one of its channels.
    w->cfg.watch.grid_rows = 20;
    w->cfg.watch.grid_cols = 30;
    w->cfg.watch.block_size_m = 10.0;
    w->cfg.watch.channels = 100;
    w->sites = {{0, radio::BlockId{215}}, {1, radio::BlockId{260}},
                {2, radio::BlockId{282}}, {3, radio::BlockId{327}},
                {4, radio::BlockId{333}}, {5, radio::BlockId{376}}};
    w->num_sus = 1;
    w->eirp_levels_mw = {0.1, 1.0, 10.0, 4000.0};
    w->requested_channels = 4;
  } else {
    // The town: C = 4, a 2 × 3 grid of 100 m blocks. Receivers 0/1 share
    // block 0 and 4/5 share block 5, so two of them on one channel exhaust
    // that cell (the §3.8 prefilter's fast-deny case).
    w->cfg.watch.grid_rows = 2;
    w->cfg.watch.grid_cols = 3;
    w->cfg.watch.block_size_m = 100.0;
    w->cfg.watch.channels = 4;
    w->sites = {{0, radio::BlockId{0}}, {1, radio::BlockId{0}},
                {2, radio::BlockId{2}}, {3, radio::BlockId{3}},
                {4, radio::BlockId{5}}, {5, radio::BlockId{5}}};
    w->num_sus = 16;
    // Every level reaches all six blocks, so every town request discloses
    // the whole grid and costs the same. With levels that disclosed one or
    // four blocks, the decision median sat on the boundary between cost
    // clusters and moved by half from one seed to the next.
    w->eirp_levels_mw = {1e-5, 1e-4, 1e-3, 10.0};
  }
  if (id == WorkloadId::kPirPaper || id == WorkloadId::kPirTown) {
    w->cfg.query_mode = core::QueryMode::kPir;
    w->cfg.pir.replicas = 2;
  }
  w->cfg.validate();
  return w;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  std::uint64_t z = seed + stream * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Inputs make_inputs(const World& world, WorkloadId id, std::uint64_t seed) {
  SeededRng rng{stream_seed(seed, kStreamWorld)};
  const auto& wc = world.cfg.watch;
  Inputs in;

  // Signal levels: a small seeded set, so PU inputs repeat.
  for (int i = 0; i < 3; ++i)
    in.signal_levels_mw.push_back(radio::dbm_to_mw(-75.0 + 20.0 * rng.unit()));

  // Initial tunings: every receiver on, consecutive ids on consecutive
  // channels, so the co-located town pairs never start exhausted.
  const std::uint64_t ch0 = rng.below(wc.channels);
  in.initial.resize(world.sites.size());
  for (const auto& site : world.sites) {
    in.initial[site.pu_id] = watch::PuTuning{
        radio::ChannelId{static_cast<std::uint32_t>((ch0 + site.pu_id) %
                                                    wc.channels)},
        in.signal_levels_mw[rng.below(in.signal_levels_mw.size())]};
  }

  // 64 request templates. Town: every block equally often, the SU fleet in
  // rotation, every channel requested. Paper world: one SU, positions
  // stratified over the receivers' band, four seeded channels per request.
  // The world's four EIRP levels rotate, so grants and denials both occur.
  // The levels are not seeded: a level sets a request's disclosed range and
  // so its cost, which is kept the same for every seed.
  const double d_c = watch::exclusion_radius_m(wc, world.model);
  std::uint32_t band_lo = world.sites.front().block.index;
  std::uint32_t band_hi = band_lo + 1;
  for (const auto& s : world.sites) {
    band_lo = std::min(band_lo, s.block.index);
    band_hi = std::max(band_hi, s.block.index + 1);
  }
  const bool paper = id == WorkloadId::kPirPaper;
  constexpr std::size_t kTemplates = 64;
  for (std::size_t i = 0; i < kTemplates; ++i) {
    Position p;
    p.su_id = static_cast<std::uint32_t>(i % world.num_sus + 1);
    std::uint32_t block;
    if (paper) {
      const double span = band_hi - band_lo;
      block = band_lo + static_cast<std::uint32_t>(
                            (static_cast<double>(i) + rng.unit()) * span /
                            static_cast<double>(kTemplates));
    } else {
      block = static_cast<std::uint32_t>(i % world.blocks());
    }
    const auto& levels = world.eirp_levels_mw;
    const std::size_t turn = paper ? i : i / world.blocks();
    const double level = levels[turn % levels.size()];
    std::vector<double> eirp(wc.channels, world.requested_channels ? 0.0 : level);
    for (std::size_t k = 0; k < world.requested_channels; ++k) {
      std::size_t c;
      do {
        c = rng.below(wc.channels);
      } while (eirp[c] != 0.0);
      eirp[c] = level;
    }
    p.request =
        watch::SuRequest{p.su_id, radio::BlockId{block}, std::move(eirp)};
    p.f = watch::build_su_f_matrix(wc, world.sites, p.request.block,
                                   p.request.eirp_mw_per_channel, world.model,
                                   d_c);
    p.range = core::disclosed_range(p.f, block, 0);
    in.positions.push_back(std::move(p));
  }
  return in;
}

DecisionStream::DecisionStream(std::size_t templates, std::uint64_t seed)
    : rng_(stream_seed(seed, kStreamDecisions)), order_(templates),
      pos_(templates) {
  for (std::size_t i = 0; i < templates; ++i) order_[i] = i;
}

std::size_t DecisionStream::next() {
  if (pos_ == order_.size()) {
    for (std::size_t i = order_.size(); i > 1; --i)
      std::swap(order_[i - 1], order_[rng_.below(i)]);
    pos_ = 0;
  }
  return order_[pos_++];
}

UpdateStream::UpdateStream(const World& world, const Inputs& in,
                           std::uint64_t seed)
    : rng_(stream_seed(seed, kStreamUpdates)),
      channels_(world.cfg.watch.channels),
      levels_(in.signal_levels_mw),
      initial_(in.initial),
      state_(in.initial) {}

std::vector<PuEvent> UpdateStream::restore() {
  std::vector<PuEvent> out;
  for (std::uint32_t pu = 0; pu < state_.size(); ++pu) {
    const auto& cur = state_[pu];
    const auto& init = initial_[pu];
    if (cur.channel != init.channel || cur.signal_mw != init.signal_mw)
      out.push_back(PuEvent{pu, init});
    state_[pu] = init;
  }
  return out;
}

PuEvent UpdateStream::next() {
  PuEvent ev;
  ev.pu_id = static_cast<std::uint32_t>(rng_.below(state_.size()));
  auto& cur = state_[ev.pu_id];
  auto pick = [&] {
    return watch::PuTuning{
        radio::ChannelId{static_cast<std::uint32_t>(rng_.below(channels_))},
        levels_[rng_.below(levels_.size())]};
  };
  if (!cur.channel) {
    ev.tuning = pick();  // power on
  } else if (rng_.below(4) == 0) {
    ev.tuning = watch::PuTuning{};  // power off
  } else {
    do {
      ev.tuning = pick();  // retune: another channel or level
    } while (ev.tuning.channel == cur.channel &&
             ev.tuning.signal_mw == cur.signal_mw);
  }
  cur = ev.tuning;
  return ev;
}

ChurnPattern::ChurnPattern(std::uint64_t seed)
    : rng_(stream_seed(seed, kStreamChurn)), block_(20), pos_(20) {}

bool ChurnPattern::next_is_update() {
  if (pos_ == block_.size()) {
    std::fill(block_.begin(), block_.end(), true);
    for (int k = 0; k < 3; ++k) {
      std::size_t slot;
      do {
        slot = rng_.below(block_.size());
      } while (!block_[slot]);
      block_[slot] = false;
    }
    pos_ = 0;
  }
  return block_[pos_++];
}

std::vector<double> open_loop_due_ms(double rate_per_s, double seconds,
                                     std::uint64_t seed) {
  SeededRng rng{stream_seed(seed, kStreamArrivals)};
  const auto n = static_cast<std::size_t>(std::llround(rate_per_s * seconds));
  std::vector<double> gaps(n);
  for (std::size_t i = 0; i < n; ++i)
    gaps[i] = -std::log1p(-(static_cast<double>(i) + 0.5) / static_cast<double>(n));
  for (std::size_t i = n; i > 1; --i) std::swap(gaps[i - 1], gaps[rng.below(i)]);
  std::vector<double> due(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gaps[i];
    due[i] = t;
  }
  if (n > 0) {
    const double scale = seconds * 1e3 / t;
    for (auto& d : due) d *= scale;
  }
  return due;
}

std::unique_ptr<watch::PlainWatch> make_oracle(const World& world,
                                               const Inputs& in) {
  auto oracle = std::make_unique<watch::PlainWatch>(world.cfg.watch,
                                                    world.sites, world.model);
  for (const auto& site : world.sites)
    oracle->pu_update(site.pu_id, in.initial[site.pu_id]);
  return oracle;
}

bool oracle_granted(const watch::PlainWatch& oracle, const Position& pos) {
  const __int128 x = oracle.config().protection_scalar();
  const auto& n = oracle.sdc().budget();
  for (std::uint32_t c = 0; c < pos.f.channels(); ++c) {
    for (std::uint32_t b = pos.range.first; b < pos.range.second; ++b) {
      const radio::ChannelId ch{c};
      const radio::BlockId bl{b};
      if (static_cast<__int128>(n.at(ch, bl)) - x * pos.f.at(ch, bl) <= 0)
        return false;
    }
  }
  return true;
}

std::vector<bool> oracle_verdicts(const watch::PlainWatch& oracle,
                                  const std::vector<Position>& positions) {
  std::vector<bool> out;
  out.reserve(positions.size());
  for (const auto& p : positions) out.push_back(oracle_granted(oracle, p));
  return out;
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [n, m] : items_) {
    if (n == name) {
      m = Metric{value, unit};
      return;
    }
  }
  items_.emplace_back(name, Metric{value, unit});
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace pisa::bench
