// Reliable delivery over the lossy simulated network.
//
// ReliableTransport wraps a SimulatedNetwork behind the Transport interface
// and gives every registered endpoint sequence-numbered, acknowledged,
// checksum-verified delivery:
//   * DATA frames carry (seq, app payload) plus a CRC-32 trailer; frames
//     that fail the checksum are rejected and NACKed so the sender re-sends
//     immediately instead of waiting out the retransmission timer;
//   * every valid DATA frame is ACKed, and a bounded per-(sender, peer)
//     dedup window suppresses duplicates — injected by the network or
//     created by retransmission after a lost ACK — so the application
//     handler sees each message at most once;
//   * unACKed frames are retransmitted on a virtual-time timeout with
//     exponential backoff (timeout_us · backoff^k) and abandoned after
//     max_retries retransmissions, reporting a GiveUp to the failure
//     handler instead of hanging the simulation.
//
// Frame layout (all little-endian, sealed by codec seal_frame):
//   u8 kind (0 = DATA, 1 = ACK, 2 = NACK) | u64 seq |
//   [DATA only: u32 len | payload bytes] | u32 crc32
// The wire Message keeps the application `type` on DATA frames so the
// audit trail stays readable; ACK/NACK frames use "rel_ack" / "rel_nack".
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/bus.hpp"

namespace pisa::net {

inline constexpr const char* kMsgAck = "rel_ack";
inline constexpr const char* kMsgNack = "rel_nack";

struct ReliablePolicy {
  std::size_t max_retries = 6;      ///< retransmissions before giving up
  double timeout_us = 4'000.0;      ///< initial retransmission timeout
  double backoff = 2.0;             ///< timeout multiplier per retransmission
  std::size_t dedup_window = 4096;  ///< (peer, seq) entries remembered
};

/// Bounded (sender, seq) memory for application-level idempotency — the
/// second line of defence behind the transport dedup window. seq 0 marks a
/// raw (unframed) delivery and is never treated as a replay.
///
/// Remembers the last `capacity` distinct frames across all senders and
/// forgets the oldest first. Storage is fixed at construction: a ring of
/// (sender id, seq) entries in arrival order and an open-addressed index
/// over it (linear probing, backward-shift deletion). Sender names are
/// interned while they have a frame in the window, so a frame from a known
/// sender costs no allocation.
class DedupWindow {
 public:
  explicit DedupWindow(std::size_t capacity = 4096);

  /// True the first time (sender, seq) is seen; false for replays.
  bool first_time(const std::string& sender, std::uint64_t seq);

 private:
  struct Entry {
    std::uint64_t seq;
    std::uint32_t sender;
  };

  std::size_t home(std::uint32_t sender, std::uint64_t seq) const;
  /// Index position holding (sender, seq), or the empty position that ends
  /// its probe sequence.
  std::size_t find(std::uint32_t sender, std::uint64_t seq) const;
  void erase_at(std::size_t pos);
  void forget_oldest();
  std::uint32_t intern(const std::string& sender);

  std::size_t cap_;
  std::vector<Entry> ring_;            // arrival order, cap_ reserved
  std::size_t oldest_ = 0;             // ring slot to overwrite once full
  std::vector<std::uint32_t> index_;   // ring slot + 1; 0 = empty
  std::size_t mask_ = 0;               // index_.size() - 1 (a power of two)
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;     // by sender id
  std::vector<std::uint32_t> frames_;  // ring entries per sender id
  std::vector<std::uint32_t> free_ids_;
};

class ReliableTransport final : public Transport {
 public:
  explicit ReliableTransport(SimulatedNetwork& net, ReliablePolicy policy = {});

  /// Register an application endpoint. Both ends of a link must go through
  /// the same ReliableTransport so frames and ACKs are interpreted
  /// consistently.
  void register_endpoint(const std::string& name, Handler handler) override;

  /// Remove the endpoint here and on the underlying network (a crashed
  /// party). Its unacknowledged outgoing frames are dropped with it, and
  /// every peer's connection state to the name — outstanding frames and the
  /// receive-sequence history — is torn down too, so armed retransmission
  /// timers fall silent and a restarted incarnation (numbering again from
  /// seq 1) is not mistaken for a replay of the old one.
  void remove_endpoint(const std::string& name) override;

  /// Reliable send: m.from must be a registered endpoint (it receives the
  /// ACKs). The payload is framed, checksummed and retransmitted until
  /// acknowledged or the retry budget is exhausted.
  void send(Message m) override;

  /// Application timers pass straight through to the underlying network's
  /// virtual clock (the transport adds no framing to time).
  void schedule_after(double delay_us, std::function<void()> fn) override;

  /// A message the transport gave up on after exhausting its retries.
  struct GiveUp {
    std::string from;
    std::string to;
    std::string type;
    std::uint64_t seq = 0;
    std::size_t attempts = 0;  ///< transmissions, including the original
  };
  using FailureHandler = std::function<void(const GiveUp&)>;
  void set_failure_handler(FailureHandler handler) {
    on_failure_ = std::move(handler);
  }
  const std::vector<GiveUp>& failures() const { return failures_; }

  struct Stats {
    std::uint64_t data_sent = 0;     ///< first transmissions
    std::uint64_t retransmits = 0;   ///< timer- or NACK-triggered re-sends
    std::uint64_t acks_sent = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t delivered = 0;     ///< app messages handed to handlers
    std::uint64_t duplicates_suppressed = 0;
    std::uint64_t corrupt_rejected = 0;
    std::uint64_t gave_up = 0;

    bool operator==(const Stats&) const = default;
  };
  const Stats& stats() const { return stats_; }

  const ReliablePolicy& policy() const { return policy_; }

 private:
  enum Kind : std::uint8_t { kData = 0, kAck = 1, kNack = 2 };

  struct Outstanding {
    std::string type;
    std::vector<std::uint8_t> frame;  // pristine sealed copy for re-sends
    std::size_t retransmits = 0;
  };
  struct PeerSend {
    std::map<std::uint64_t, Outstanding> outstanding;
  };
  struct PeerRecv {
    std::set<std::uint64_t> seen;
    std::deque<std::uint64_t> order;
  };
  struct Endpoint {
    Handler app;
    std::map<std::string, PeerSend> tx;  // by destination
    std::map<std::string, PeerRecv> rx;  // by sender
  };

  void on_frame(const std::string& self, const Message& raw);
  void arm_timer(const std::string& from, const std::string& to,
                 std::uint64_t seq);
  void on_timeout(const std::string& from, const std::string& to,
                  std::uint64_t seq);
  /// Re-send an outstanding frame if the retry budget allows; gives up
  /// (erasing it and reporting the loss) when `exhausted_gives_up`.
  void retransmit(const std::string& from, const std::string& to,
                  std::uint64_t seq, bool exhausted_gives_up);
  void send_control(Kind kind, const std::string& from, const std::string& to,
                    std::uint64_t seq);

  SimulatedNetwork& net_;
  ReliablePolicy policy_;
  std::map<std::string, Endpoint> endpoints_;
  /// Transport-global DATA sequence counter. Sharing one numbering across
  /// all connections makes every (sender, seq) pair unique for the lifetime
  /// of the transport — in particular, an endpoint that crashes and
  /// re-registers never reuses its predecessor's numbers, so peers'
  /// application-level idempotency windows keyed on (sender, seq) stay
  /// correct across incarnations.
  std::uint64_t next_seq_ = 1;
  Stats stats_;
  std::vector<GiveUp> failures_;
  FailureHandler on_failure_;
};

}  // namespace pisa::net
