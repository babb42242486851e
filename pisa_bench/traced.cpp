// The traced replay (--trace-out): per-layer times from spans around every
// call the benchmark makes into a layer's public functions.
//
// 1. Layer probes: one Montgomery exponentiation, Paillier encryption,
//    decryption and RSA signature at the workload's key sizes.
// 2. Sim replay: the first operations of the workload's seeded sequence on
//    an in-process PisaSystem with the same config and key seed, calling the
//    entities directly; PIR queries go straight to PirClient and
//    PirReplica::answer. Each update also runs on a copy with durability
//    off, which prices the journal.
// 3. TCP replay: the same operations over the real deployment, one in
//    flight, to split each decision's round trip into server-side layer time
//    measured on that deployment and the unattributed rest (framing,
//    sockets, dispatch hand-offs).
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"
#include "bigint/prime.hpp"
#include "core/protocol.hpp"
#include "crypto/paillier.hpp"
#include "crypto/rsa_signature.hpp"
#include "pir/pir_client.hpp"
#include "pir/pir_database.hpp"
#include "trace.hpp"

namespace pisa::bench {

namespace {

constexpr std::size_t kTraceOps = 256;
constexpr int kProbeReps = 32;
constexpr double kTimeoutMs = 30'000.0;

struct TraceOp {
  bool update = false;
  std::size_t pos = 0;
  PuEvent ev;
};

/// The first operations of the workload's seeded sequence: pu_churn's first
/// kTraceOps steps as interleaved, otherwise the first kTraceOps decisions
/// followed by the first kTraceOps updates (the window's phase order).
std::vector<TraceOp> trace_ops(const World& world, const Inputs& in,
                               const RunOptions& opt) {
  DecisionStream decisions{in.positions.size(), opt.seed};
  UpdateStream updates{world, in, opt.seed};
  std::vector<TraceOp> ops;
  if (opt.id == WorkloadId::kPuChurn) {
    ChurnPattern pattern{opt.seed};
    for (std::size_t i = 0; i < kTraceOps; ++i) {
      if (pattern.next_is_update())
        ops.push_back({true, 0, updates.next()});
      else
        ops.push_back({false, decisions.next(), {}});
    }
  } else {
    for (std::size_t i = 0; i < kTraceOps; ++i)
      ops.push_back({false, decisions.next(), {}});
    for (std::size_t i = 0; i < kTraceOps; ++i)
      ops.push_back({true, 0, updates.next()});
  }
  return ops;
}

double span_ms(const Tracer& t, std::size_t idx) {
  const auto& s = t.spans().at(idx);
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

void probe_layers(Tracer& t, const World& world) {
  crypto::ChaChaRng rng{kServerKeySeed ^ 0xB0B};
  const auto kp = crypto::paillier_generate(world.cfg.paillier_bits, rng,
                                            world.cfg.mr_rounds);
  const auto rsa =
      crypto::rsa_generate(world.cfg.rsa_bits, rng, world.cfg.mr_rounds);
  const auto base = bn::random_below(rng, kp.pk.n_squared());
  const auto m = bn::random_below(rng, kp.pk.n());
  const std::vector<std::uint8_t> msg(64, 0x5A);
  std::size_t sink = 0;
  t.set_op(0);
  Tracer::Scope op(t, "op.layer_probe");
  for (int i = 0; i < kProbeReps; ++i) {
    crypto::PaillierCiphertext ct;
    {
      Tracer::Scope s(t, "bigint.modexp");
      sink += kp.pk.mont_n2().pow(base, kp.pk.n()).bit_length();
    }
    {
      Tracer::Scope s(t, "crypto.paillier_encrypt");
      ct = kp.pk.encrypt(m, rng);
    }
    {
      Tracer::Scope s(t, "crypto.paillier_decrypt");
      sink += kp.sk.decrypt(ct).bit_length();
    }
    {
      Tracer::Scope s(t, "crypto.rsa_sign");
      sink += rsa.sk.sign(msg).bit_length();
    }
  }
  if (sink == 0) throw std::logic_error("layer probes computed nothing");
}

/// One in-process deployment driven by direct entity calls.
class SimReplay {
 public:
  SimReplay(const World& world, const Inputs& in,
            const std::filesystem::path& store_dir, bool durable,
            std::uint64_t seed)
      : world_(world),
        rng_(kServerKeySeed),
        pir_rng_(stream_seed(seed, kStreamPirShares) + 1) {
    auto cfg = world.cfg;
    cfg.durability.enabled = durable;
    cfg.durability.dir = store_dir.string();
    if (durable) {
      std::filesystem::remove_all(store_dir);
      std::filesystem::create_directories(store_dir);
    }
    sys_ = std::make_unique<core::PisaSystem>(cfg, world.sites, world.model,
                                              rng_);
    for (std::uint32_t su = 1; su <= world.num_sus; ++su) {
      auto& client = sys_->add_su(su);
      sys_->sdc().register_su_key(su, client.public_key());
      if (world.pir())
        pir_.emplace(su, std::make_unique<pir::PirClient>(
                             su, world.cfg.pir.replicas, world.blocks(),
                             pir_rng_));
    }
    for (const auto& site : world.sites)
      sys_->pu_update(site.pu_id, in.initial[site.pu_id]);
  }

  /// Paillier decision through every entity; `conv` receives the
  /// conversion request the SDC built.
  bool paillier_decision(Tracer& t, const Position& pos, std::uint64_t rid,
                         core::ConvertRequestMsg& conv) {
    auto& su = sys_->su(pos.su_id);
    auto& sdc = sys_->sdc();
    const std::size_t gw = sys_->stp().group_key().ciphertext_bytes();
    const std::size_t sw = su.public_key().ciphertext_bytes();
    core::SuRequestMsg msg;
    {
      Tracer::Scope s(t, "su.prepare_request");
      msg = su.prepare_request(pos.f, rid, pos.range.first, pos.range.second);
    }
    {
      Tracer::Scope s(t, "codec.su_request");
      msg = core::SuRequestMsg::decode(msg.encode(gw));
    }
    {
      Tracer::Scope s(t, "sdc.begin_request");
      conv = sdc.begin_request(msg);
    }
    {
      Tracer::Scope s(t, "codec.convert_request");
      conv = core::ConvertRequestMsg::decode(conv.encode(gw));
    }
    core::ConvertResponseMsg x;
    {
      Tracer::Scope s(t, "stp.convert");
      x = sys_->stp().convert(conv);
    }
    {
      Tracer::Scope s(t, "codec.convert_response");
      x = core::ConvertResponseMsg::decode(x.encode(sw));
    }
    core::SuResponseMsg resp;
    {
      Tracer::Scope s(t, "sdc.finish_request");
      resp = sdc.finish_request(x);
    }
    {
      Tracer::Scope s(t, "codec.su_response");
      resp = core::SuResponseMsg::decode(resp.encode(sw));
    }
    Tracer::Scope s(t, "su.process_response");
    return su.process_response(resp, sdc.license_key()).granted;
  }

  /// PIR decision: share split, ℓ replica scans, reconstruction, local
  /// evaluation.
  bool pir_decision(Tracer& t, const Position& pos, std::uint64_t rid) {
    auto& client = *pir_.at(pos.su_id);
    std::vector<pir::PirQueryMsg> queries;
    {
      Tracer::Scope s(t, "pir.make_queries");
      queries = client.make_queries(rid, pos.range.first, pos.range.second);
    }
    {
      Tracer::Scope s(t, "codec.pir_query");
      for (auto& q : queries) q = pir::PirQueryMsg::decode(q.encode());
    }
    std::vector<pir::PirReplyMsg> replies;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      Tracer::Scope s(t, "pir.answer");
      replies.push_back(sys_->pir_replica(i)->replica().answer(
          queries[i], sys_->thread_pool().get()));
    }
    {
      Tracer::Scope s(t, "codec.pir_reply");
      for (auto& r : replies) r = pir::PirReplyMsg::decode(r.encode());
    }
    std::vector<std::vector<std::uint8_t>> raw;
    {
      Tracer::Scope s(t, "pir.reconstruct");
      raw = client.reconstruct(replies);
    }
    Tracer::Scope s(t, "pir.evaluate_rows");
    std::vector<std::vector<std::int64_t>> rows;
    rows.reserve(raw.size());
    for (const auto& r : raw)
      rows.push_back(pir::decode_budget_row(r, world_.cfg.watch.channels));
    return pir::evaluate_rows(world_.cfg.watch, pos.f, pos.range.first, rows)
        .granted;
  }

  /// PU event as a delta, the SDC fold, its re-probe round and (PIR mode)
  /// the replica refresh. Returns the fold's time, or nullopt when the event
  /// changed nothing.
  std::optional<double> update(Tracer& t, const PuEvent& ev) {
    auto& pu = sys_->pu(ev.pu_id);
    std::optional<pir::PirUpdateMsg> pir_msg;
    if (world_.pir()) {
      Tracer::Scope s(t, "pu.make_pir_update");
      pir_msg = pu.make_pir_update(ev.tuning);
    }
    std::optional<core::PuDeltaMsg> delta;
    {
      Tracer::Scope s(t, "pu.make_delta");
      delta = pu.make_delta(ev.tuning);
    }
    if (!delta) return std::nullopt;
    {
      Tracer::Scope s(t, "codec.pu_delta");
      delta = core::PuDeltaMsg::decode(
          delta->encode(sys_->stp().group_key().ciphertext_bytes()));
    }
    const std::size_t fold_idx = t.spans().size();
    {
      Tracer::Scope s(t, "sdc.handle_pu_delta");
      sys_->sdc().handle_pu_delta(*delta);
    }
    const double fold_ms = span_ms(t, fold_idx);
    {
      Tracer::Scope s(t, "sdc.probe_round");
      sys_->network().run();
    }
    if (pir_msg) {
      {
        Tracer::Scope s(t, "codec.pir_update");
        pir_msg = pir::PirUpdateMsg::decode(pir_msg->encode());
      }
      for (std::size_t i = 0; i < world_.cfg.pir.replicas; ++i) {
        Tracer::Scope s(t, "pir.apply_update");
        sys_->pir_replica(i)->replica().apply_update(*pir_msg);
      }
    }
    return fold_ms;
  }

 private:
  const World& world_;
  crypto::ChaChaRng rng_;
  crypto::ChaChaRng pir_rng_;
  std::unique_ptr<core::PisaSystem> sys_;
  std::map<std::uint32_t, std::unique_ptr<pir::PirClient>> pir_;
};

struct TcpReplay {
  std::vector<double> decision_ms;
  double unattributed_ms = 0;  ///< Σ (round trip − server-side layer time)
};

/// The traced operations over TCP, one in flight; updates keep the state in
/// step with the sim replay. Each decision's server-side layer time is
/// measured on this deployment: the SDC phase and prefilter counters, the
/// replicas' scan counters, and for a conversion the deployment's own
/// StpServer::convert timed on the request the sim SDC built for the same
/// operation, called once the dispatch lane is idle right after the round
/// trip (RpcServer keeps no conversion timer).
TcpReplay replay_tcp(const World& world, const Inputs& in,
                     const RunOptions& opt, const std::vector<TraceOp>& ops,
                     const std::vector<EncryptedTemplate>& templates,
                     const std::vector<std::optional<core::ConvertRequestMsg>>&
                         conversions,
                     std::size_t& mismatches) {
  TcpReplay out;
  Deployment dep{world, in, opt.tmp_dir / "trace_tcp"};
  auto oracle = make_oracle(world, in);
  auto& client = dep.client();
  auto& server = dep.server();
  auto scan_ms = [&] {
    double total = 0;
    for (std::size_t i = 0; i < world.cfg.pir.replicas; ++i)
      if (auto* rep = server.pir_replica(i)) total += rep->stats().scan_total_ms;
    return total;
  };
  auto sdc_ms = [&] {
    const auto& st = server.sdc().stats();
    return st.phase1.total_ms + st.phase2.total_ms + st.prefilter.total_ms;
  };
  std::uint64_t pir_done = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto& op = ops[i];
    if (op.update) {
      dep.pu_send(op.ev, true);
      oracle->pu_update(op.ev.pu_id, op.ev.tuning);
      continue;
    }
    const auto& pos = in.positions[op.pos];
    const bool expected = oracle_granted(*oracle, pos);
    bool granted = false;
    double tcp_ms = 0, server_ms = 0;
    if (world.pir()) {
      const double scan0 = scan_ms();
      const auto t0 = Clock::now();
      auto res = client.pir_request(pos.su_id, pos.f, pos.range.first,
                                    pos.range.second, kTimeoutMs);
      auto arrived = res.completed
                         ? dep.arrivals().wait_count(++pir_done, kTimeoutMs)
                         : std::nullopt;
      dep.arrivals().skip_completed();
      if (!arrived) throw std::runtime_error("traced PIR request failed");
      tcp_ms = ms_between(t0, *arrived);
      server.transport().quiesce(kTimeoutMs);
      server_ms = scan_ms() - scan0;
      granted = res.granted;
    } else {
      const double sdc0 = sdc_ms();
      const auto rid = dep.next_request_id();
      const auto t0 = Clock::now();
      client.submit(templates[op.pos].with_id(rid));
      auto arrived = dep.arrivals().wait(rid, kTimeoutMs);
      core::SuResponseMsg resp;
      bool fast = false;
      if (!arrived || !client.wait_response(rid, &resp, kTimeoutMs, &fast))
        throw std::runtime_error("traced request timed out");
      tcp_ms = ms_between(t0, *arrived);
      server.transport().quiesce(kTimeoutMs);
      server_ms = sdc_ms() - sdc0;
      if (!fast) {
        if (!conversions[i])
          throw std::logic_error("no conversion recorded for a decision");
        const auto c0 = Clock::now();
        server.stp().convert(*conversions[i]);
        server_ms += ms_between(c0, Clock::now());
        granted = client.su(pos.su_id)
                      .process_response(resp, server.license_key())
                      .granted;
      }
    }
    if (granted != expected) ++mismatches;
    out.decision_ms.push_back(tcp_ms);
    out.unattributed_ms += tcp_ms - server_ms;
  }
  return out;
}

/// Cost of recording one span, measured on a scratch tracer.
double span_cost_us() {
  constexpr std::size_t kReps = 20000;
  Tracer scratch{kReps};
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kReps; ++i) Tracer::Scope s(scratch, "x");
  return ms_between(t0, Clock::now()) * 1e3 / static_cast<double>(kReps);
}

}  // namespace

MetricSet traced_metrics(const World& world, const Inputs& in,
                         const RunOptions& opt, const WindowResult& window,
                         const std::vector<EncryptedTemplate>& templates,
                         std::size_t& mismatches) {
  const auto ops = trace_ops(world, in, opt);
  Tracer t;
  probe_layers(t, world);

  // Sim replay, durability on (the deployment's config). Each update also
  // runs right away on a copy with durability off, and the paired
  // difference of the two folds is the journal's cost.
  std::vector<std::optional<core::ConvertRequestMsg>> conversions(ops.size());
  std::vector<double> journal_ms;
  std::size_t sim_ops = 0, sim_decisions = 0;
  {
    SimReplay sim{world, in, opt.tmp_dir / "trace_sim", true, opt.seed};
    SimReplay volatile_sim{world, in, {}, false, opt.seed};
    Tracer volatile_t;
    auto oracle = make_oracle(world, in);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto& op = ops[i];
      t.set_op(i + 1);
      if (op.update) {
        std::optional<double> fold_ms;
        {
          Tracer::Scope s(t, "op.update");
          fold_ms = sim.update(t, op.ev);
        }
        const auto reference_ms = volatile_sim.update(volatile_t, op.ev);
        oracle->pu_update(op.ev.pu_id, op.ev.tuning);
        if (!fold_ms) continue;
        if (reference_ms) journal_ms.push_back(*fold_ms - *reference_ms);
      } else {
        Tracer::Scope s(t, "op.decision");
        const auto& pos = in.positions[op.pos];
        bool granted;
        if (world.pir()) {
          granted = sim.pir_decision(t, pos, i + 1);
        } else {
          granted = sim.paillier_decision(t, pos, i + 1,
                                          conversions[i].emplace());
        }
        if (granted != oracle_granted(*oracle, pos))
          ++mismatches;
        ++sim_decisions;
      }
      ++sim_ops;
    }
  }

  const auto tcp = replay_tcp(world, in, opt, ops, templates, conversions,
                              mismatches);

  const auto names = t.by_name();
  auto stat = [&](const char* name) -> const Tracer::NameStats* {
    auto it = names.find(name);
    return it == names.end() ? nullptr : &it->second;
  };
  auto median_ms = [&](const char* name) {
    const auto* s = stat(name);
    return s ? percentile(s->durations_ms, 50) : 0.0;
  };
  auto mean_ms = [&](const char* name) {
    const auto* s = stat(name);
    return s && s->count > 0 ? s->total_ms / static_cast<double>(s->count)
                             : 0.0;
  };
  auto total_ms = [&](const char* name) {
    const auto* s = stat(name);
    return s ? s->total_ms : 0.0;
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  double codec_ms = 0;
  std::size_t op_spans = 0;
  for (const auto& [name, st] : names) {
    if (name.rfind("codec.", 0) == 0) codec_ms += st.total_ms;
    if (name != "op.layer_probe" && name.rfind("bigint.", 0) != 0 &&
        name.rfind("crypto.", 0) != 0)
      op_spans += st.count;
  }

  MetricSet m;
  m.set("bigint.modexp_ms", median_ms("bigint.modexp"), "ms");
  m.set("crypto.paillier_encrypt_ms", median_ms("crypto.paillier_encrypt"), "ms");
  m.set("crypto.paillier_decrypt_ms", median_ms("crypto.paillier_decrypt"), "ms");
  m.set("crypto.rsa_sign_ms", median_ms("crypto.rsa_sign"), "ms");
  m.set("core.stp.convert_ms", mean_ms("stp.convert"), "ms");
  m.set("core.pu.make_delta_ms", mean_ms("pu.make_delta"), "ms");
  m.set("store.journal_ms_per_update", percentile(journal_ms, 50), "ms");
  m.set("pir.client_us",
        per(1e3 * (total_ms("pir.make_queries") + total_ms("pir.reconstruct") +
                   total_ms("pir.evaluate_rows")),
            world.pir() ? static_cast<double>(sim_decisions) : 0.0),
        "us");
  m.set("net.codec_us_per_op",
        per(1e3 * codec_ms, static_cast<double>(sim_ops)), "us");
  m.set("net.unattributed_ms",
        per(tcp.unattributed_ms, static_cast<double>(tcp.decision_ms.size())),
        "ms");
  // Only the open loop queues: elsewhere one request is in flight at a time.
  m.set("net.queue_wait_ms",
        opt.id == WorkloadId::kPaillierOpen
            ? percentile(window.decision_ms, 50) -
                  percentile(tcp.decision_ms, 50)
            : 0.0,
        "ms");
  m.set("bench.trace_overhead_us_per_op",
        span_cost_us() *
            per(static_cast<double>(op_spans), static_cast<double>(sim_ops)),
        "us");

  std::printf("\nper-layer self time over the traced replay (%zu ops):\n",
              sim_ops);
  std::printf("  %-28s %7s %12s %12s\n", "span", "count", "total ms", "self ms");
  for (const auto& [name, st] : names)
    std::printf("  %-28s %7zu %12.3f %12.3f\n", name.c_str(), st.count,
                st.total_ms, st.self_ms);
  if (!opt.trace_out.empty() && !t.dump_json(opt.trace_out))
    throw std::runtime_error("cannot write trace file " + opt.trace_out);
  return m;
}

}  // namespace pisa::bench
