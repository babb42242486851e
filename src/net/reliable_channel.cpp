#include "net/reliable_channel.hpp"

#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "net/codec.hpp"

namespace pisa::net {

DedupWindow::DedupWindow(std::size_t capacity) : cap_(capacity) {
  if (cap_ == 0) return;
  ring_.reserve(cap_);
  // Load factor <= 1/2 keeps the linear probes short.
  index_.assign(std::bit_ceil(2 * cap_), 0);
  mask_ = index_.size() - 1;
}

std::size_t DedupWindow::home(std::uint32_t sender, std::uint64_t seq) const {
  std::uint64_t h = seq * 0x9E3779B97F4A7C15ull ^
                    (std::uint64_t{sender} + 1) * 0xC2B2AE3D27D4EB4Full;
  h ^= h >> 29;
  return static_cast<std::size_t>(h) & mask_;
}

std::size_t DedupWindow::find(std::uint32_t sender, std::uint64_t seq) const {
  std::size_t pos = home(sender, seq);
  while (index_[pos] != 0) {
    const Entry& e = ring_[index_[pos] - 1];
    if (e.seq == seq && e.sender == sender) break;
    pos = (pos + 1) & mask_;
  }
  return pos;
}

void DedupWindow::erase_at(std::size_t pos) {
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless that would move it in front of its home position.
  std::size_t hole = pos;
  for (std::size_t j = (hole + 1) & mask_; index_[j] != 0; j = (j + 1) & mask_) {
    const Entry& e = ring_[index_[j] - 1];
    const std::size_t h = home(e.sender, e.seq);
    if (((j - h) & mask_) >= ((j - hole) & mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = 0;
}

void DedupWindow::forget_oldest() {
  const Entry e = ring_[oldest_];
  erase_at(find(e.sender, e.seq));
  if (--frames_[e.sender] == 0) {
    ids_.erase(names_[e.sender]);
    free_ids_.push_back(e.sender);
  }
}

std::uint32_t DedupWindow::intern(const std::string& sender) {
  if (auto it = ids_.find(sender); it != ids_.end()) return it->second;
  std::uint32_t id;
  if (free_ids_.empty()) {
    id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(sender);
    frames_.push_back(0);
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
    names_[id] = sender;
  }
  ids_.emplace(sender, id);
  return id;
}

bool DedupWindow::first_time(const std::string& sender, std::uint64_t seq) {
  if (seq == 0 || cap_ == 0) return true;  // raw delivery / no memory
  if (auto it = ids_.find(sender);
      it != ids_.end() && index_[find(it->second, seq)] != 0)
    return false;
  std::size_t slot = ring_.size();
  if (slot == cap_) {
    forget_oldest();  // may release the sender's own id: intern afterwards
    slot = oldest_;
    oldest_ = (oldest_ + 1) % cap_;
  } else {
    ring_.push_back({});
  }
  const std::uint32_t id = intern(sender);
  ring_[slot] = {seq, id};
  ++frames_[id];
  index_[find(id, seq)] = static_cast<std::uint32_t>(slot + 1);
  return true;
}

ReliableTransport::ReliableTransport(SimulatedNetwork& net, ReliablePolicy policy)
    : net_(net), policy_(policy) {
  if (policy_.timeout_us <= 0 || policy_.backoff < 1.0 ||
      policy_.dedup_window == 0)
    throw std::invalid_argument("ReliableTransport: bad policy");
}

void ReliableTransport::register_endpoint(const std::string& name,
                                          Handler handler) {
  if (!handler)
    throw std::invalid_argument("ReliableTransport: null handler");
  if (endpoints_.contains(name))
    throw std::invalid_argument("ReliableTransport: duplicate endpoint " + name);
  net_.register_endpoint(name,
                         [this, name](const Message& raw) { on_frame(name, raw); });
  endpoints_.emplace(name, Endpoint{std::move(handler), {}, {}});
}

void ReliableTransport::remove_endpoint(const std::string& name) {
  net_.remove_endpoint(name);
  endpoints_.erase(name);
  // A crashed process takes its connections with it: every peer drops its
  // outstanding frames to the name (armed retransmission timers then find
  // nothing and fall silent) and forgets its sequence history — otherwise a
  // restarted incarnation, numbering again from seq 1, would be suppressed
  // as a replay of its predecessor. Stale frames of the old incarnation
  // that surface after a restart fall through to the application-level
  // DedupWindow, the second line of defence.
  for (auto& [peer, ep] : endpoints_) {
    ep.tx.erase(name);
    ep.rx.erase(name);
  }
}

void ReliableTransport::send(Message m) {
  auto it = endpoints_.find(m.from);
  if (it == endpoints_.end())
    throw std::logic_error("ReliableTransport: unregistered sender " + m.from);
  auto& ps = it->second.tx[m.to];
  std::uint64_t seq = next_seq_++;

  Encoder enc;
  enc.put_u8(kData);
  enc.put_u64(seq);
  enc.put_bytes(m.payload);
  auto frame = enc.take();
  seal_frame(frame);

  auto [oit, inserted] =
      ps.outstanding.emplace(seq, Outstanding{m.type, std::move(frame), 0});
  (void)inserted;
  ++stats_.data_sent;
  // The queue gets its own copy: injected corruption mutates the queued
  // frame, and retransmissions must start from the pristine bytes.
  net_.send({m.from, m.to, m.type, oit->second.frame, seq});
  arm_timer(m.from, m.to, seq);
}

void ReliableTransport::schedule_after(double delay_us,
                                       std::function<void()> fn) {
  net_.schedule_after(delay_us, std::move(fn));
}

void ReliableTransport::arm_timer(const std::string& from, const std::string& to,
                                  std::uint64_t seq) {
  auto& o = endpoints_.at(from).tx.at(to).outstanding.at(seq);
  double delay =
      policy_.timeout_us *
      std::pow(policy_.backoff, static_cast<double>(o.retransmits));
  net_.schedule_after(delay, [this, from, to, seq] { on_timeout(from, to, seq); });
}

void ReliableTransport::on_timeout(const std::string& from, const std::string& to,
                                   std::uint64_t seq) {
  retransmit(from, to, seq, /*exhausted_gives_up=*/true);
}

void ReliableTransport::retransmit(const std::string& from, const std::string& to,
                                   std::uint64_t seq, bool exhausted_gives_up) {
  auto ei = endpoints_.find(from);
  if (ei == endpoints_.end()) return;
  auto ti = ei->second.tx.find(to);
  if (ti == ei->second.tx.end()) return;
  auto oi = ti->second.outstanding.find(seq);
  if (oi == ti->second.outstanding.end()) return;  // already acknowledged

  Outstanding& o = oi->second;
  if (o.retransmits >= policy_.max_retries) {
    if (!exhausted_gives_up) return;  // a pending timer will give up
    GiveUp g{from, to, o.type, seq, o.retransmits + 1};
    ti->second.outstanding.erase(oi);
    ++stats_.gave_up;
    failures_.push_back(g);
    if (on_failure_) on_failure_(g);
    return;
  }
  ++o.retransmits;
  ++stats_.retransmits;
  net_.send({from, to, o.type, o.frame, seq});
  if (exhausted_gives_up) arm_timer(from, to, seq);
}

void ReliableTransport::send_control(Kind kind, const std::string& from,
                                     const std::string& to, std::uint64_t seq) {
  Encoder enc;
  enc.put_u8(kind);
  enc.put_u64(seq);
  auto frame = enc.take();
  seal_frame(frame);
  if (kind == kAck)
    ++stats_.acks_sent;
  else
    ++stats_.nacks_sent;
  net_.send({from, to, kind == kAck ? kMsgAck : kMsgNack, std::move(frame), seq});
}

void ReliableTransport::on_frame(const std::string& self, const Message& raw) {
  auto& ep = endpoints_.at(self);
  auto frame = raw.payload;
  if (!open_frame(frame)) {
    ++stats_.corrupt_rejected;
    // Best-effort header recovery for the NACK — the seq bytes may be
    // corrupt themselves, in which case the sender finds nothing
    // outstanding and ignores it; the retransmission timer still covers.
    std::uint64_t seq = 0;
    if (raw.payload.size() >= 9) {
      Decoder header({raw.payload.data(), 9});
      header.get_u8();
      seq = header.get_u64();
    }
    send_control(kNack, self, raw.from, seq);
    return;
  }

  // Parse fully before side effects so a malformed-but-CRC-valid frame
  // (hostile input) is dropped without touching handler state.
  std::optional<Message> deliver;
  std::uint64_t seq = 0;
  std::uint8_t kind = 0;
  try {
    Decoder dec(frame);
    kind = dec.get_u8();
    seq = dec.get_u64();
    if (kind == kData) {
      auto payload = dec.get_bytes();
      dec.expect_done();
      deliver = Message{raw.from, raw.to, raw.type, std::move(payload), seq};
    } else if (kind == kAck || kind == kNack) {
      dec.expect_done();
    } else {
      throw DecodeError("ReliableTransport: unknown frame kind");
    }
  } catch (const DecodeError&) {
    ++stats_.corrupt_rejected;
    return;
  }

  if (kind == kAck) {
    auto ti = ep.tx.find(raw.from);
    if (ti != ep.tx.end() && ti->second.outstanding.erase(seq) > 0)
      ++stats_.acks_received;
    return;
  }
  if (kind == kNack) {
    retransmit(self, raw.from, seq, /*exhausted_gives_up=*/false);
    return;
  }

  // DATA: always re-ACK — the previous ACK may have been lost.
  send_control(kAck, self, raw.from, seq);
  auto& pr = ep.rx[raw.from];
  if (pr.seen.contains(seq)) {
    ++stats_.duplicates_suppressed;
    return;
  }
  pr.seen.insert(seq);
  pr.order.push_back(seq);
  while (pr.order.size() > policy_.dedup_window) {
    pr.seen.erase(pr.order.front());
    pr.order.pop_front();
  }
  ++stats_.delivered;
  ep.app(*deliver);
}

}  // namespace pisa::net
