#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace pisa::net {

namespace {

// epoll_event.data.u64 tags; connection ids start above these.
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kListenTag = 1;
constexpr std::uint64_t kFirstConnId = 2;

void throw_errno(const char* what) {
  throw std::runtime_error(std::string("TcpTransport: ") + what + ": " +
                           std::strerror(errno));
}

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

}  // namespace

TcpTransport::TcpTransport(TcpOptions opts) : opts_(opts) {
  if (opts_.dispatch_low_water > opts_.dispatch_high_water)
    opts_.dispatch_low_water = opts_.dispatch_high_water;
  next_conn_id_ = kFirstConnId;
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw_errno("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0)
    throw_errno("epoll_ctl(wake)");
  io_thread_ = std::thread([this] { io_loop(); });
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    if (io_thread_.joinable()) io_thread_.join();
    if (dispatch_thread_.joinable()) dispatch_thread_.join();
    return;
  }
  wake_io();
  dispatch_cv_.notify_all();
  dispatch_idle_cv_.notify_all();
  if (io_thread_.joinable()) io_thread_.join();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
  conns_.clear();
  routes_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_fd_);
  ::close(epfd_);
  wake_fd_ = epfd_ = -1;
  drained_cv_.notify_all();
}

void TcpTransport::wake_io() {
  std::uint64_t one = 1;
  // Best-effort: the counter saturating (EAGAIN) still leaves it readable.
  [[maybe_unused]] auto n = ::write(wake_fd_, &one, sizeof one);
}

std::uint16_t TcpTransport::listen(std::uint16_t port) {
  std::lock_guard<std::mutex> lk(mu_);
  if (listen_fd_ >= 0)
    throw std::runtime_error("TcpTransport: already listening");
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  int yes = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("bind");
  }
  if (::listen(fd, 256) < 0) {
    int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("getsockname");
  }
  set_nonblocking(fd);
  // Publish the fd before arming it: the I/O thread reads listen_fd_ in
  // handle_accept() as soon as epoll reports the first connection.
  listen_fd_ = fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    int e = errno;
    ::close(fd);
    listen_fd_ = -1;
    errno = e;
    throw_errno("epoll_ctl(listen)");
  }
  port_ = ntohs(addr.sin_port);
  return port_;
}

std::uint64_t TcpTransport::connect(const std::string& host, std::uint16_t port,
                                    std::vector<std::string> route_names) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("TcpTransport: bad host " + host);
  }
  // Blocking connect, then flip to non-blocking: connection setup is a
  // client bootstrap step, not a hot path, and loopback completes at once.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("connect");
  }
  set_nonblocking(fd);
  int yes = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);

  std::lock_guard<std::mutex> lk(mu_);
  auto conn = std::make_unique<Conn>(opts_.max_frame_bytes);
  conn->id = next_conn_id_++;
  conn->fd = fd;
  conn->inbound = false;
  std::uint64_t id = conn->id;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("epoll_ctl(conn)");
  }
  conns_.emplace(id, std::move(conn));
  for (auto& name : route_names) routes_[name] = id;
  ++stats_.connections_opened;
  return id;
}

void TcpTransport::close_connection(std::uint64_t conn_id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  it->second->doomed = true;
  wake_io();
}

void TcpTransport::register_endpoint(const std::string& name, Handler handler) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!endpoints_.emplace(name, std::move(handler)).second)
    throw std::invalid_argument("TcpTransport: endpoint name taken: " + name);
}

void TcpTransport::remove_endpoint(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  endpoints_.erase(name);
}

void TcpTransport::record_failure_locked(const Message& m, std::string reason) {
  failures_.push_back(
      {m.from, m.to, m.type, m.payload.size(), std::move(reason)});
}

void TcpTransport::enqueue_dispatch_locked(DispatchItem item) {
  std::size_t depth;
  {
    std::lock_guard<std::mutex> dlk(dmu_);
    dispatch_.push_back(std::move(item));
    depth = dispatch_.size();
    if (depth > stats_.peak_dispatch_depth) stats_.peak_dispatch_depth = depth;
  }
  dispatch_cv_.notify_one();
  if (depth >= opts_.dispatch_high_water) wake_io();  // engage read pause
}

void TcpTransport::queue_frame_locked(Conn& c, const Message& m) {
  auto record = encode_frame(m);
  c.wq_bytes += record.size();
  c.wq.push_back(std::move(record));
  if (c.wq_bytes > stats_.peak_write_queue_bytes)
    stats_.peak_write_queue_bytes = c.wq_bytes;
  ++stats_.frames_sent;
  if (c.wq_bytes > opts_.max_write_queue_bytes) {
    // Slow reader: the peer is not draining its socket. Cut it loose rather
    // than let one connection's backlog grow without bound.
    c.doomed = true;
    ++stats_.slow_reader_closed;
  }
  c.want_write = true;
  wake_io();
}

void TcpTransport::send(Message m) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_.load()) return;
  if (m.net_seq == 0) m.net_seq = next_seq_++;
  if (endpoints_.contains(m.to)) {
    ++stats_.local_delivered;
    enqueue_dispatch_locked({std::move(m), nullptr});
    return;
  }
  auto rt = routes_.find(m.to);
  if (rt == routes_.end()) {
    ++stats_.dropped_no_route;
    record_failure_locked(m, "no route to endpoint");
    return;
  }
  auto it = conns_.find(rt->second);
  if (it == conns_.end() || it->second->doomed) {
    ++stats_.dropped_no_route;
    record_failure_locked(m, "route to closed connection");
    return;
  }
  queue_frame_locked(*it->second, m);
}

void TcpTransport::schedule_after(double delay_us, std::function<void()> fn) {
  auto due = std::chrono::steady_clock::now() +
             std::chrono::microseconds(static_cast<std::int64_t>(delay_us));
  {
    std::lock_guard<std::mutex> lk(mu_);
    timers_.push({due, next_timer_seq_++, std::move(fn)});
  }
  wake_io();
}

bool TcpTransport::flush(double timeout_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  return drained_cv_.wait_for(
      lk, std::chrono::microseconds(static_cast<std::int64_t>(timeout_ms * 1e3)),
      [this] {
        for (const auto& [id, c] : conns_)
          if (c->wq_bytes > 0 && !c->doomed) return false;
        return true;
      });
}

TcpTransport::Stats TcpTransport::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::vector<DeliveryFailure> TcpTransport::delivery_failures() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failures_;
}

// --- I/O thread --------------------------------------------------------------

void TcpTransport::update_epoll_interest(Conn& c) {
  if (c.fd < 0) return;
  epoll_event ev{};
  ev.events = (c.read_paused ? 0u : EPOLLIN) | (c.want_write ? EPOLLOUT : 0u);
  ev.data.u64 = c.id;
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void TcpTransport::close_conn_locked(Conn& c) {
  if (c.fd >= 0) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
  }
  if (c.reader.buffered_bytes() > 0) ++stats_.truncated_streams;
  for (auto it = routes_.begin(); it != routes_.end();)
    it = (it->second == c.id) ? routes_.erase(it) : std::next(it);
  ++stats_.connections_closed;
}

void TcpTransport::handle_accept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; stay listening
    }
    std::lock_guard<std::mutex> lk(mu_);
    if (conns_.size() >= opts_.max_connections) {
      // Admission control: shed the connection immediately instead of
      // letting it camp in the backlog until it times out.
      ++stats_.admission_rejected;
      ::close(fd);
      continue;
    }
    int yes = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
    auto conn = std::make_unique<Conn>(opts_.max_frame_bytes);
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->inbound = true;
    conn->read_paused = reads_paused_;
    epoll_event ev{};
    ev.events = (reads_paused_ ? 0u : EPOLLIN);
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    ++stats_.connections_accepted;
    conns_.emplace(conn->id, std::move(conn));
  }
}

void TcpTransport::handle_readable(std::uint64_t conn_id) {
  Conn* c;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end() || it->second->doomed) return;
    c = it->second.get();
  }
  // The reader and fd are I/O-thread-owned; sockets are read without the
  // lock so a long feed never stalls senders.
  std::uint8_t buf[64 * 1024];
  bool eof = false;
  std::size_t got_total = 0;
  for (;;) {
    ssize_t n = ::read(c->fd, buf, sizeof buf);
    if (n > 0) {
      got_total += static_cast<std::size_t>(n);
      c->reader.feed({buf, static_cast<std::size_t>(n)});
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    eof = true;  // ECONNRESET and friends
    break;
  }

  std::lock_guard<std::mutex> lk(mu_);
  stats_.bytes_received += got_total;
  Message m;
  for (;;) {
    auto status = c->reader.poll(&m);
    if (status == FrameReader::Poll::kNeedMore) break;
    if (status == FrameReader::Poll::kReject) {
      // Framing is unrecoverable on a byte stream — drop the connection.
      if (c->reader.error() == FrameReader::Error::kOversize)
        ++stats_.oversize_streams;
      else
        ++stats_.corrupt_streams;
      c->doomed = true;
      break;
    }
    ++stats_.frames_received;
    // Learn the return route: replies to this peer's registered names go
    // back over the connection they last arrived on (latest wins, so a
    // reconnected client supersedes its dead predecessor).
    if (!m.from.empty()) routes_[m.from] = c->id;
    enqueue_dispatch_locked({std::move(m), nullptr});
    m = Message{};
  }
  if (eof && !c->doomed) c->doomed = true;
}

void TcpTransport::handle_writable(std::uint64_t conn_id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  if (c.fd < 0) return;
  while (!c.wq.empty()) {
    const auto& front = c.wq.front();
    ssize_t n = ::send(c.fd, front.data() + c.wq_front_off,
                       front.size() - c.wq_front_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      c.doomed = true;  // broken pipe / reset
      break;
    }
    stats_.bytes_sent += static_cast<std::size_t>(n);
    c.wq_front_off += static_cast<std::size_t>(n);
    c.wq_bytes -= static_cast<std::size_t>(n);
    if (c.wq_front_off == front.size()) {
      c.wq.pop_front();
      c.wq_front_off = 0;
    }
  }
  c.want_write = !c.wq.empty() && !c.doomed;
  update_epoll_interest(c);
  if (c.wq.empty()) drained_cv_.notify_all();
}

void TcpTransport::apply_read_pause() {
  std::size_t depth;
  {
    std::lock_guard<std::mutex> dlk(dmu_);
    depth = dispatch_.size();
  }
  std::lock_guard<std::mutex> lk(mu_);
  bool should_pause = reads_paused_ ? depth > opts_.dispatch_low_water
                                    : depth >= opts_.dispatch_high_water;
  if (should_pause == reads_paused_) return;
  reads_paused_ = should_pause;
  if (should_pause) ++stats_.reads_paused;
  for (auto& [id, c] : conns_) {
    if (c->fd < 0 || c->doomed) continue;
    c->read_paused = should_pause;
    update_epoll_interest(*c);
  }
}

void TcpTransport::io_loop() {
  std::vector<epoll_event> events(128);
  while (!stopping_.load()) {
    // Arm pending writes, reap doomed connections, honor backpressure.
    apply_read_pause();
    int timeout_ms = 500;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        Conn& c = *it->second;
        if (c.doomed) {
          close_conn_locked(c);
          it = conns_.erase(it);
          drained_cv_.notify_all();
          continue;
        }
        if (c.want_write && c.fd >= 0) update_epoll_interest(c);
        ++it;
      }
      if (!timers_.empty()) {
        auto now = std::chrono::steady_clock::now();
        auto due = timers_.top().due;
        auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      due - now).count();
        timeout_ms = static_cast<int>(std::max<std::int64_t>(0, ms));
        timeout_ms = std::min(timeout_ms, 500);
      }
    }

    int n = ::epoll_wait(epfd_, events.data(), static_cast<int>(events.size()),
                         timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n && !stopping_.load(); ++i) {
      std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        std::uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof drain) > 0) {
        }
      } else if (tag == kListenTag) {
        handle_accept();
      } else {
        if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))
          handle_readable(tag);
        if (events[i].events & EPOLLOUT) handle_writable(tag);
      }
    }

    // Fire due timers onto the dispatch lane (same thread as handlers, so
    // entity timer callbacks never race their message handlers).
    std::vector<std::function<void()>> due_fns;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto now = std::chrono::steady_clock::now();
      while (!timers_.empty() && timers_.top().due <= now) {
        due_fns.push_back(timers_.top().fn);
        timers_.pop();
      }
      for (auto& fn : due_fns)
        enqueue_dispatch_locked({Message{}, std::move(fn)});
    }
  }
}

// --- dispatch thread ---------------------------------------------------------

bool TcpTransport::quiesce(double timeout_ms) {
  std::unique_lock<std::mutex> lk(dmu_);
  return dispatch_idle_cv_.wait_for(
      lk, std::chrono::microseconds(static_cast<std::int64_t>(timeout_ms * 1e3)),
      [this] {
        return stopping_.load() || (dispatch_.empty() && !dispatch_busy_);
      });
}

void TcpTransport::dispatch_loop() {
  for (;;) {
    DispatchItem item;
    std::size_t depth_after;
    {
      std::unique_lock<std::mutex> lk(dmu_);
      dispatch_cv_.wait(lk, [this] {
        return stopping_.load() || !dispatch_.empty();
      });
      if (stopping_.load()) return;
      item = std::move(dispatch_.front());
      dispatch_.pop_front();
      depth_after = dispatch_.size();
      dispatch_busy_ = true;
    }
    // Crossing the low-water mark un-pauses reads (the I/O thread makes the
    // actual epoll changes on its next pass).
    if (depth_after == opts_.dispatch_low_water) wake_io();

    if (item.fn) {
      item.fn();
    } else {
      Handler handler;
      {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = endpoints_.find(item.msg.to);
        if (it == endpoints_.end()) {
          ++stats_.dropped_no_endpoint;
          record_failure_locked(item.msg, "unknown endpoint");
        } else {
          handler = it->second;  // copy: handler may remove/replace itself
        }
      }
      if (handler) handler(item.msg);
    }

    {
      std::lock_guard<std::mutex> lk(dmu_);
      dispatch_busy_ = false;
      if (dispatch_.empty()) dispatch_idle_cv_.notify_all();
    }
  }
}

}  // namespace pisa::net
