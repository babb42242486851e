// End-to-end plaintext WATCH system (paper §III-A / §IV-A): registered PU
// sites, channel-tuning updates and SU transmission requests, without any
// cryptography. Serves as the functional ground truth for PISA and as the
// "WATCH without privacy" baseline in the benchmarks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "radio/pathloss.hpp"
#include "watch/plain_sdc.hpp"

namespace pisa::watch {

/// An SU's transmission request in operational terms.
struct SuRequest {
  std::uint32_t su_id = 0;
  radio::BlockId block;
  /// Requested EIRP (mW) per channel; 0 = channel not requested.
  std::vector<double> eirp_mw_per_channel;
};

class PlainWatch {
 public:
  /// `model` is the secondary-signal path-loss model h(·); it must outlive
  /// this object.
  PlainWatch(const WatchConfig& cfg, std::vector<PuSite> sites,
             const radio::PathLossModel& model);

  /// PU i tunes to a channel (or turns off with `tuning.channel == nullopt`).
  /// Unknown pu_id throws std::out_of_range.
  void pu_update(std::uint32_t pu_id, const PuTuning& tuning);

  /// PU i's receiver re-registers at `block` (mobility). F models it there
  /// from now on, and its next pu_update places the W column there. Unknown
  /// pu_id or a block outside the area throws std::out_of_range.
  void pu_move(std::uint32_t pu_id, radio::BlockId block);

  /// Evaluate an SU request end to end (builds F, applies eq. (6)/(7)).
  Decision process_request(const SuRequest& request) const;

  /// The F matrix the SU would submit — exposed so the encrypted pipeline
  /// can be fed byte-identical inputs.
  QMatrix build_request_matrix(const SuRequest& request) const;

  const std::vector<PuSite>& sites() const { return sites_; }
  const PlainSdc& sdc() const { return sdc_; }
  double exclusion_radius() const { return d_c_m_; }
  const WatchConfig& config() const { return cfg_; }

 private:
  PuSite& site_of(std::uint32_t pu_id);

  WatchConfig cfg_;
  std::vector<PuSite> sites_;
  const radio::PathLossModel& model_;
  double d_c_m_;
  PlainSdc sdc_;
};

}  // namespace pisa::watch
