// The deployment every transport shares (DESIGN.md §3.7).
//
// Infrastructure is the one composition root for the paper's server side
// (Figures 4–5): over any net::Transport it builds the exec pool, the STP
// (generating pk_G), the SDC, the threshold share, attaches both, and brings
// up PIR replicas 1..ℓ−1. PisaSystem (simulated network) and rpc::RpcServer
// (TCP) each hold one, so an identically-seeded rng draws the same keys and
// per-entity streams on both by construction. The client side's
// counterpart is core::ClientSession (client_session.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bigint/random_source.hpp"
#include "core/config.hpp"
#include "core/sdc_server.hpp"
#include "core/stp_server.hpp"
#include "net/bus.hpp"
#include "pir/pir_replica.hpp"
#include "watch/matrices.hpp"

namespace pisa::core {

class Infrastructure {
 public:
  /// Validate `cfg`, then build and attach every server-side entity to
  /// `transport` in the one fixed rng draw order: STP keygen, SDC keygen.
  /// `transport` and `rng` must outlive the infrastructure.
  Infrastructure(const PisaConfig& cfg, net::Transport& transport,
                 bn::RandomSource& rng);

  const PisaConfig& config() const { return cfg_; }

  SdcServer& sdc() { return *sdc_; }
  const SdcServer& sdc() const { return *sdc_; }
  StpServer& stp() { return *stp_; }
  const StpServer& stp() const { return *stp_; }

  /// Shared execution pool (null when cfg.num_threads == 1).
  const std::shared_ptr<exec::ThreadPool>& thread_pool() const { return exec_; }

  // --- crash/restart chaos harness (DESIGN.md §3.6) -------------------------
  /// Kill the SDC process: its endpoint (and the co-located PIR replica 0)
  /// leaves the transport first, so frames in flight to it become delivery
  /// failures, never late deliveries; then the entity and all its in-memory
  /// state are destroyed. What survives is what durability wrote to
  /// cfg.durability.dir. Idempotent.
  void crash_sdc();

  /// Boot a fresh SDC (recovering from cfg.durability.dir when durability
  /// is on) with its threshold share and thread pool, re-attached under the
  /// same name. SU keys are re-fetched from the STP directory on demand.
  SdcServer& restart_sdc();

  bool sdc_running() const { return sdc_ != nullptr; }

  /// Replica `index` (0 = the SDC-hosted one), or nullptr when that replica
  /// is crashed / the deployment is not in PIR mode.
  pir::PirServer* pir_replica(std::size_t index);

  /// Kill a standalone PIR replica (index ≥ 1; replica 0 rides crash_sdc):
  /// endpoint removed, object destroyed. A query in flight to it fails as a
  /// typed transport failure, never a reconstruction from a partial reply
  /// set. Idempotent.
  void crash_pir_replica(std::size_t index);

 private:
  void boot_sdc();

  PisaConfig cfg_;
  net::Transport& transport_;
  bn::RandomSource& rng_;
  std::shared_ptr<exec::ThreadPool> exec_;
  std::unique_ptr<StpServer> stp_;
  std::unique_ptr<SdcServer> sdc_;
  /// §3.10 standalone replicas 1..ℓ−1 (null slot = crashed).
  std::vector<std::unique_ptr<pir::PirServer>> pir_extras_;
};

}  // namespace pisa::core
