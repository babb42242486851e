// Loopback integration tests for the epoll TCP transport (satellite 3,
// ISSUE 7): echo and multiplexing semantics, PR 6 endpoint-restart
// composition, real-time timers, slow-reader backpressure bounding server
// memory, admission control, and the headline acceptance criterion —
// concurrent multiplexed SU sessions over 127.0.0.1 byte-identical to the
// SimulatedNetwork oracle at pack_slots ∈ {1, 4} and with a threshold STP on
// a two-lane server, also while the server's idle-time randomizer refill
// races the conversions — plus teardown with work still in flight.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/protocol.hpp"
#include "crypto/chacha_rng.hpp"
#include "net/frame.hpp"
#include "net/rpc_server.hpp"
#include "net/tcp_transport.hpp"
#include "radio/pathloss.hpp"
#include "socket_test_util.hpp"
#include "watch/matrices.hpp"

namespace pisa::net {
namespace {

using radio::BlockId;
using radio::ChannelId;
using testutil::ChaosProxy;
using testutil::ScopedListener;

TEST(TcpTransport, PortZeroGivesDistinctEphemeralPorts) {
  TcpTransport a, b;
  ScopedListener la(a), lb(b);
  EXPECT_NE(la.port(), 0);
  EXPECT_NE(lb.port(), 0);
  EXPECT_NE(la.port(), lb.port());
  EXPECT_EQ(a.port(), la.port());
}

struct Collected {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Message> msgs;

  void push(const Message& m) {
    {
      std::lock_guard<std::mutex> lk(mu);
      msgs.push_back(m);
    }
    cv.notify_all();
  }
  bool wait_count(std::size_t n, int timeout_ms) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                       [&] { return msgs.size() >= n; });
  }
};

TEST(TcpTransport, EchoRoundTripOverLoopback) {
  Collected got;  // outlives the transports whose threads push into it
  TcpTransport server, client;
  ScopedListener listener(server);
  server.register_endpoint("srv", [&server](const Message& m) {
    server.send({"srv", m.from, "echo", m.payload, 0});
  });
  client.register_endpoint("cli", [&got](const Message& m) { got.push(m); });
  client.connect("127.0.0.1", listener.port(), {"srv"});

  for (int i = 0; i < 5; ++i)
    client.send({"cli", "srv", "ping", {std::uint8_t(i), 0xAB}, 0});
  ASSERT_TRUE(got.wait_count(5, 10000));

  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(got.msgs[static_cast<std::size_t>(i)].type, "echo");
    EXPECT_EQ(got.msgs[static_cast<std::size_t>(i)].payload[0], std::uint8_t(i));
  }
  auto cs = client.stats();
  auto ss = server.stats();
  EXPECT_GE(cs.frames_sent, 5u);
  EXPECT_GE(cs.frames_received, 5u);
  EXPECT_GE(ss.frames_received, 5u);
  EXPECT_GT(cs.bytes_sent, 0u);
  EXPECT_GT(ss.bytes_sent, 0u);
  EXPECT_EQ(ss.corrupt_streams, 0u);
  EXPECT_TRUE(client.flush(1000));
}

TEST(TcpTransport, ManyLogicalSessionsMultiplexOneConnection) {
  Collected got;
  TcpTransport server, client;
  ScopedListener listener(server);
  server.register_endpoint("srv", [&server](const Message& m) {
    server.send({"srv", m.from, "echo", m.payload, 0});
  });
  constexpr int kSessions = 50;
  for (int i = 0; i < kSessions; ++i)
    client.register_endpoint("c_" + std::to_string(i),
                             [&got](const Message& m) { got.push(m); });
  client.connect("127.0.0.1", listener.port(), {"srv"});
  for (int i = 0; i < kSessions; ++i)
    client.send({"c_" + std::to_string(i), "srv", "ping",
                 {std::uint8_t(i)}, 0});
  ASSERT_TRUE(got.wait_count(kSessions, 15000));
  // All fifty sessions shared exactly one accepted connection.
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  // Each session got its own reply back.
  std::vector<bool> seen(kSessions, false);
  for (const auto& m : got.msgs) seen[m.payload[0]] = true;
  for (int i = 0; i < kSessions; ++i) EXPECT_TRUE(seen[static_cast<std::size_t>(i)]) << i;
}

TEST(TcpTransport, RemovedEndpointFailsDeliveryUntilReRegistered) {
  // PR 6 restart composition: frames for a name that left the transport
  // become recorded delivery failures — never late deliveries — and a
  // re-registered endpoint (the restarted entity) serves again.
  Collected got;
  TcpTransport server, client;
  ScopedListener listener(server);
  server.register_endpoint("svc", [&got](const Message& m) { got.push(m); });
  client.connect("127.0.0.1", listener.port(), {"svc"});

  client.send({"cli", "svc", "one", {}, 0});
  ASSERT_TRUE(got.wait_count(1, 10000));

  server.remove_endpoint("svc");
  client.send({"cli", "svc", "lost", {}, 0});
  ASSERT_TRUE(testutil::poll_until(
      [&] { return server.stats().dropped_no_endpoint >= 1; }, 10000));
  auto failures = server.delivery_failures();
  ASSERT_FALSE(failures.empty());
  EXPECT_EQ(failures.back().type, "lost");
  EXPECT_EQ(failures.back().reason, "unknown endpoint");
  EXPECT_EQ(got.msgs.size(), 1u) << "no late delivery after removal";

  server.register_endpoint("svc", [&got](const Message& m) { got.push(m); });
  client.send({"cli", "svc", "again", {}, 0});
  ASSERT_TRUE(got.wait_count(2, 10000));
  EXPECT_EQ(got.msgs.back().type, "again");
}

TEST(TcpTransport, TimersFireInOrderOnTheDispatchThread) {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> order;
  auto push = [&](int v) {
    {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(v);
    }
    cv.notify_all();
  };
  TcpTransport t;  // after everything its timer callbacks touch
  t.schedule_after(60'000.0, [&] { push(2); });
  t.schedule_after(5'000.0, [&] { push(1); });
  std::unique_lock<std::mutex> lk(mu);
  ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(10),
                          [&] { return order.size() == 2; }));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TcpTransport, SlowReaderIsBoundedAndDisconnected) {
  // A peer that stops reading must not let the server queue grow without
  // bound: the write queue hits its cap, the connection is closed, and the
  // peak queue size stays within one frame of the cap.
  TcpOptions opts;
  opts.max_write_queue_bytes = 256u << 10;
  TcpTransport server(opts);
  ScopedListener listener(server);
  constexpr std::size_t kFrame = 64u << 10;
  server.register_endpoint("srv", [&server](const Message& m) {
    for (int i = 0; i < 200; ++i)
      server.send({"srv", m.from, "blob",
                   std::vector<std::uint8_t>(kFrame, 0x42), 0});
  });

  int fd = testutil::connect_loopback(listener.port());
  testutil::write_all(fd, encode_frame({"sink", "srv", "go", {}, 1}));
  // ...and never read a byte.
  ASSERT_TRUE(testutil::poll_until(
      [&] { return server.stats().slow_reader_closed >= 1; }, 20000));
  auto s = server.stats();
  EXPECT_LE(s.peak_write_queue_bytes,
            opts.max_write_queue_bytes + kFrame + 4096)
      << "server memory is bounded by the cap plus one frame";
  ::close(fd);
}

TEST(TcpTransport, AdmissionControlShedsConnectionsOverTheCap) {
  TcpOptions opts;
  opts.max_connections = 1;
  TcpTransport server(opts);
  ScopedListener listener(server);
  server.register_endpoint("srv", [](const Message&) {});

  int first = testutil::connect_loopback(listener.port());
  testutil::write_all(first, encode_frame({"a", "srv", "hello", {}, 1}));
  ASSERT_TRUE(testutil::poll_until(
      [&] { return server.stats().connections_accepted >= 1; }, 10000));

  int second = testutil::connect_loopback(listener.port());
  ASSERT_TRUE(testutil::poll_until(
      [&] { return server.stats().admission_rejected >= 1; }, 10000));
  // The shed connection sees a clean EOF.
  std::uint8_t buf[8];
  ssize_t n = ::recv(second, buf, sizeof buf, 0);
  EXPECT_EQ(n, 0);
  ::close(first);
  ::close(second);
}

TEST(TcpTransport, CorruptStreamDropsOnlyThatConnection) {
  Collected got;
  TcpTransport server, client;
  ScopedListener listener(server);
  server.register_endpoint("srv", [&got](const Message& m) { got.push(m); });

  // A hostile raw peer sends garbage: its connection dies poisoned...
  int fd = testutil::connect_loopback(listener.port());
  testutil::write_all(fd, {0x10, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF,
                           0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                           0x88, 0x99, 0xAA, 0xBB});
  ASSERT_TRUE(testutil::poll_until(
      [&] { return server.stats().corrupt_streams >= 1; }, 10000));
  std::uint8_t buf[8];
  EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0) << "poisoned conn is closed";
  ::close(fd);

  // ...while a well-formed peer on its own connection is unaffected.
  client.connect("127.0.0.1", listener.port(), {"srv"});
  client.send({"cli", "srv", "fine", {}, 0});
  ASSERT_TRUE(got.wait_count(1, 10000));
  EXPECT_EQ(got.msgs[0].type, "fine");
}

// --- the headline acceptance criterion ---------------------------------------

/// One server-side deployment shape: the knobs the shared Infrastructure
/// wires up differently (slot layout, threshold share, exec pool).
struct Deployment {
  std::size_t pack_slots = 1;
  bool threshold_stp = false;
  std::size_t num_threads = 1;
};

// gtest prints the parameter into the test name; the plain paper layout
// prints as its slot count alone.
void PrintTo(const Deployment& d, std::ostream* os) {
  *os << d.pack_slots;
  if (d.threshold_stp) *os << "_threshold";
  if (d.num_threads > 1) *os << "_threads" << d.num_threads;
}

core::PisaConfig deployment_config(const Deployment& d) {
  core::PisaConfig cfg;
  cfg.watch.grid_rows = 2;
  cfg.watch.grid_cols = 3;
  cfg.watch.block_size_m = 500.0;
  cfg.watch.channels = 3;
  cfg.paillier_bits = 768;
  cfg.rsa_bits = 384;
  cfg.blind_bits = 48;
  cfg.mr_rounds = 8;
  cfg.pack_slots = d.pack_slots;
  cfg.threshold_stp = d.threshold_stp;
  cfg.num_threads = d.num_threads;
  return cfg;
}

std::vector<watch::PuSite> test_sites() {
  return {{0, BlockId{0}}, {1, BlockId{5}}};
}

class TcpVsSimulated : public ::testing::TestWithParam<Deployment> {};

TEST_P(TcpVsSimulated, ConcurrentSessionsAreByteIdenticalToOracle) {
  const std::size_t k = GetParam().pack_slots;
  core::PisaConfig cfg = deployment_config(GetParam());
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};

  // Identically-seeded master rngs + the identical entity construction and
  // call order ⇒ the same keys, the same per-entity ChaCha streams, the
  // same ciphertext bytes on both stacks.
  crypto::ChaChaRng sim_rng{std::uint64_t{0x7C9}};
  core::PisaSystem sim{cfg, test_sites(), model, sim_rng};

  crypto::ChaChaRng tcp_rng{std::uint64_t{0x7C9}};
  rpc::RpcServer server{cfg, tcp_rng};
  rpc::RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                        tcp_rng};
  for (const auto& site : test_sites()) client.add_pu(site);

  sim.add_su(1);
  sim.add_su(2);
  client.add_su(1);
  client.add_su(2);

  watch::PuTuning t0{ChannelId{0}, 1e-6};
  watch::PuTuning t1{ChannelId{2}, 2e-6};
  sim.pu_update(0, t0);
  sim.pu_update(1, t1);
  client.pu_update(0, t0);
  client.pu_update(1, t1);

  std::vector<watch::SuRequest> reqs{
      {1, BlockId{1}, std::vector<double>(cfg.watch.channels, 100.0)},
      {2, BlockId{4}, std::vector<double>(cfg.watch.channels, 1e-4)},
      {1, BlockId{4}, std::vector<double>(cfg.watch.channels, 1e-4)},
      {2, BlockId{1}, std::vector<double>(cfg.watch.channels, 100.0)},
  };
  auto sim_outs = sim.su_request_many(reqs);
  ASSERT_EQ(sim_outs.size(), reqs.size());

  // The TCP burst: prepare everything first (same master-rng draw order as
  // su_request_many), then pipeline the lot down the one multiplexed
  // connection — submission order = arrival order = the oracle's order.
  std::vector<rpc::RpcClient::PreparedRequest> prepared;
  for (const auto& r : reqs)
    prepared.push_back(client.prepare_request(r.su_id, sim.build_f(r)));
  for (const auto& p : prepared) client.submit(p);

  int grants = 0, denies = 0;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    core::SuResponseMsg resp;
    ASSERT_TRUE(client.wait_response(prepared[i].request_id, &resp, 60000))
        << "k=" << k << " request " << i;
    auto outcome =
        client.su(prepared[i].su_id).process_response(resp, server.license_key());
    ASSERT_TRUE(sim_outs[i].completed()) << "k=" << k << " request " << i;
    EXPECT_EQ(outcome.granted, sim_outs[i].granted) << "k=" << k << " req " << i;
    EXPECT_EQ(outcome.license, sim_outs[i].license) << "k=" << k << " req " << i;
    EXPECT_EQ(outcome.signature, sim_outs[i].signature)
        << "k=" << k << " req " << i << ": socket path must be byte-identical";
    (outcome.granted ? grants : denies)++;
  }
  EXPECT_GT(grants, 0) << "sweep must exercise the grant path";
  EXPECT_GT(denies, 0) << "sweep must exercise the deny path";
  EXPECT_EQ(server.sdc().stats().pu_updates, 2u);
  EXPECT_EQ(server.sdc().stats().requests_finished, reqs.size());
}

// The burst above lets the socket decide how the SDC's phases of different
// requests interleave. Here the schedule is forced to the other extreme:
// each request is submitted only after the previous one's response came
// back, so the SDC runs begin/finish/begin/finish… while the oracle ran
// every begin before any finish. Outcomes must still be byte-identical.
TEST_P(TcpVsSimulated, OneAtATimeSessionsAreByteIdenticalToBurstOracle) {
  const std::size_t k = GetParam().pack_slots;
  core::PisaConfig cfg = deployment_config(GetParam());
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};

  crypto::ChaChaRng sim_rng{std::uint64_t{0x7C9}};
  core::PisaSystem sim{cfg, test_sites(), model, sim_rng};
  crypto::ChaChaRng tcp_rng{std::uint64_t{0x7C9}};
  rpc::RpcServer server{cfg, tcp_rng};
  rpc::RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                        tcp_rng};
  for (const auto& site : test_sites()) client.add_pu(site);
  sim.add_su(1);
  sim.add_su(2);
  client.add_su(1);
  client.add_su(2);
  watch::PuTuning t0{ChannelId{0}, 1e-6};
  watch::PuTuning t1{ChannelId{2}, 2e-6};
  sim.pu_update(0, t0);
  sim.pu_update(1, t1);
  client.pu_update(0, t0);
  client.pu_update(1, t1);

  std::vector<watch::SuRequest> reqs{
      {1, BlockId{1}, std::vector<double>(cfg.watch.channels, 100.0)},
      {2, BlockId{4}, std::vector<double>(cfg.watch.channels, 1e-4)},
      {1, BlockId{4}, std::vector<double>(cfg.watch.channels, 1e-4)},
  };
  auto sim_outs = sim.su_request_many(reqs);
  ASSERT_EQ(sim_outs.size(), reqs.size());

  std::vector<rpc::RpcClient::PreparedRequest> prepared;
  for (const auto& r : reqs)
    prepared.push_back(client.prepare_request(r.su_id, sim.build_f(r)));
  int grants = 0, denies = 0;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    client.submit(prepared[i]);
    core::SuResponseMsg resp;
    ASSERT_TRUE(client.wait_response(prepared[i].request_id, &resp, 60000))
        << "k=" << k << " request " << i;
    auto outcome =
        client.su(prepared[i].su_id).process_response(resp, server.license_key());
    ASSERT_TRUE(sim_outs[i].completed()) << "k=" << k << " request " << i;
    EXPECT_EQ(outcome.granted, sim_outs[i].granted) << "k=" << k << " req " << i;
    EXPECT_EQ(outcome.license, sim_outs[i].license) << "k=" << k << " req " << i;
    EXPECT_EQ(outcome.signature, sim_outs[i].signature)
        << "k=" << k << " req " << i << ": phase order must not move a draw";
    (outcome.granted ? grants : denies)++;
  }
  EXPECT_GT(grants, 0);
  EXPECT_GT(denies, 0);
}

// Teardown with work in flight: both ends stop their transport before they
// destroy what its threads call into (the SDC/STP entities, the SU inbox
// and its completion hook). Runs in both destruction orders; it must stay
// clean under ThreadSanitizer.
TEST(RpcTeardown, DestroysClientAndServerWithResponsesAndFoldsInFlight) {
  for (bool server_first : {false, true}) {
    SCOPED_TRACE(server_first ? "server first" : "client first");
    core::PisaConfig cfg = deployment_config({});
    radio::ExtendedHataModel model{600.0, 30.0, 10.0};
    const auto sites = test_sites();
    std::atomic<int> completed{0};
    crypto::ChaChaRng rng{std::uint64_t{0x7EA}};
    auto server = std::make_unique<rpc::RpcServer>(cfg, rng);
    auto client = std::make_unique<rpc::RpcClient>(
        cfg, server->group_key(), "127.0.0.1", server->port(), rng);
    client->set_response_hook([&completed](std::uint64_t) { ++completed; });
    for (const auto& site : sites) client->add_pu(site);
    client->add_su(1);
    const auto f = watch::build_su_f_matrix(
        cfg.watch, sites, BlockId{1},
        std::vector<double>(cfg.watch.channels, 100.0), model,
        watch::exclusion_radius_m(cfg.watch, model));

    // One settled round trip proves the path works...
    auto first = client->prepare_request(1, f);
    client->submit(first);
    ASSERT_TRUE(client->wait_response(first.request_id, nullptr, 60000));
    ASSERT_EQ(completed.load(), 1);
    // ...then PU folds and a request burst are left in flight.
    for (std::uint32_t i = 0; i < 4; ++i)
      client->pu_update(i % 2, {ChannelId{i % 2}, 1e-6 * (i + 1)});
    for (int i = 0; i < 4; ++i) client->submit(client->prepare_request(1, f));

    if (server_first) server.reset();
    client.reset();
    server.reset();
    EXPECT_LE(completed.load(), 5);
  }
}

// Idle-time refill (DESIGN.md §3.5): the server's background thread keeps
// every SU's randomizer source one largest conversion ahead. Its factors
// are the ones the conversion would have computed inline, so responses
// match the simulated oracle — which converted everything inline in one
// drain — whether the refill thread had filled the cache, was racing the
// conversions, or had not started.
TEST(RpcRandomizerRefill, IdleRefillLeavesConversionBytesUnchanged) {
  core::PisaConfig cfg = deployment_config({});
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  crypto::ChaChaRng sim_rng{std::uint64_t{0x1D1E}};
  core::PisaSystem sim{cfg, test_sites(), model, sim_rng};
  crypto::ChaChaRng tcp_rng{std::uint64_t{0x1D1E}};
  rpc::RpcServer server{cfg, tcp_rng};
  rpc::RpcClient client{cfg, server.group_key(), "127.0.0.1", server.port(),
                        tcp_rng};
  for (const auto& site : test_sites()) client.add_pu(site);
  for (std::uint32_t su : {1u, 2u}) {
    sim.add_su(su);
    client.add_su(su);
  }
  watch::PuTuning t0{ChannelId{0}, 1e-6};
  sim.pu_update(0, t0);
  client.pu_update(0, t0);

  std::vector<watch::SuRequest> reqs;
  for (std::uint32_t i = 0; i < 6; ++i)
    reqs.push_back({i % 2 + 1, BlockId{i % 6},
                    std::vector<double>(cfg.watch.channels,
                                        i % 3 == 0 ? 100.0 : 1e-4)});
  auto sim_outs = sim.su_request_many(reqs);
  std::vector<rpc::RpcClient::PreparedRequest> prepared;
  for (const auto& r : reqs)
    prepared.push_back(client.prepare_request(r.su_id, sim.build_f(r)));

  auto check = [&](std::size_t i) {
    core::SuResponseMsg resp;
    ASSERT_TRUE(client.wait_response(prepared[i].request_id, &resp, 60000))
        << "request " << i;
    auto outcome =
        client.su(prepared[i].su_id).process_response(resp, server.license_key());
    EXPECT_EQ(outcome.signature, sim_outs[i].signature) << "request " << i;
    EXPECT_EQ(outcome.granted, sim_outs[i].granted) << "request " << i;
  };
  // Cold: the first conversion computes its factors inline and starts the
  // refill thread.
  client.submit(prepared[0]);
  check(0);
  // Warm: wait until the idle thread has filled both SUs' caches.
  const std::size_t depth = server.stp().randomizer_depth();
  ASSERT_GT(depth, 0u);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.stp().pool_available(1) < depth ||
         server.stp().pool_available(2) < depth) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "refill never ran";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client.submit(prepared[1]);
  check(1);
  EXPECT_EQ(server.stp().factors_precomputed(), depth);
  // Racing: the rest back to back while the thread refills behind them.
  for (std::size_t i = 2; i < prepared.size(); ++i) client.submit(prepared[i]);
  for (std::size_t i = 2; i < prepared.size(); ++i) check(i);
}

// Teardown while the refill thread is mid-refill: ~RpcServer stops the
// transport, then the thread (it checks its stop flag between factors),
// before the STP goes. Clean under ThreadSanitizer.
TEST(RpcTeardown, StopsTheRefillThreadMidRefill) {
  core::PisaConfig cfg = deployment_config({});
  radio::ExtendedHataModel model{600.0, 30.0, 10.0};
  const auto sites = test_sites();
  crypto::ChaChaRng rng{std::uint64_t{0x7EB}};
  auto server = std::make_unique<rpc::RpcServer>(cfg, rng);
  rpc::RpcClient client{cfg, server->group_key(), "127.0.0.1", server->port(),
                        rng};
  client.add_su(1);
  // Many more registered keys than requests: after the first conversion
  // the refill has a few hundred factors to compute.
  for (std::uint32_t su = 100; su < 164; ++su)
    server->stp().register_su_key(su, client.su(1).public_key());
  const auto f = watch::build_su_f_matrix(
      cfg.watch, sites, BlockId{1},
      std::vector<double>(cfg.watch.channels, 100.0), model,
      watch::exclusion_radius_m(cfg.watch, model));
  auto req = client.prepare_request(1, f);
  client.submit(req);
  ASSERT_TRUE(client.wait_response(req.request_id, nullptr, 60000));
  const std::size_t depth = server->stp().randomizer_depth();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server->stp().pool_available(1) == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "refill never ran";
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_LT(server->stp().pool_available(163), depth)
      << "the refill must still be running when the server goes";
  server.reset();
}

INSTANTIATE_TEST_SUITE_P(PackSlots, TcpVsSimulated,
                         ::testing::Values(Deployment{1, false, 1},
                                           Deployment{4, false, 1},
                                           Deployment{1, true, 2}));

}  // namespace
}  // namespace pisa::net
