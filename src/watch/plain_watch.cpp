#include "watch/plain_watch.hpp"

#include <stdexcept>

namespace pisa::watch {

PlainWatch::PlainWatch(const WatchConfig& cfg, std::vector<PuSite> sites,
                       const radio::PathLossModel& model)
    : cfg_(cfg), sites_(std::move(sites)), model_(model),
      d_c_m_(exclusion_radius_m(cfg, model)),
      sdc_(cfg, make_e_matrix(cfg)) {
  auto area = cfg_.make_area();
  for (const auto& s : sites_) {
    if (!area.valid(s.block))
      throw std::out_of_range("PlainWatch: PU site outside the service area");
  }
}

PuSite& PlainWatch::site_of(std::uint32_t pu_id) {
  for (auto& s : sites_) {
    if (s.pu_id == pu_id) return s;
  }
  throw std::out_of_range("PlainWatch: unknown PU id");
}

void PlainWatch::pu_update(std::uint32_t pu_id, const PuTuning& tuning) {
  const PuSite& site = site_of(pu_id);
  sdc_.pu_update(pu_id, build_pu_w_matrix(cfg_, sdc_.e_matrix(), site, tuning));
}

void PlainWatch::pu_move(std::uint32_t pu_id, radio::BlockId block) {
  if (!cfg_.make_area().valid(block))
    throw std::out_of_range("PlainWatch: PU moved outside the service area");
  site_of(pu_id).block = block;
}

QMatrix PlainWatch::build_request_matrix(const SuRequest& request) const {
  return build_su_f_matrix(cfg_, sites_, request.block,
                           request.eirp_mw_per_channel, model_, d_c_m_);
}

Decision PlainWatch::process_request(const SuRequest& request) const {
  return sdc_.evaluate(build_request_matrix(request));
}

}  // namespace pisa::watch
