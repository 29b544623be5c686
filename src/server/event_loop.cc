#include "server/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <span>
#include <utility>

#include "telemetry/telemetry.h"

namespace sketch::server {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

EventLoopPool::EventLoopPool(SketchService* service, const Options& options,
                             const HttpExposition* http)
    : service_(service), http_(http), options_(options) {
  if (options_.num_threads < 1) options_.num_threads = 1;
}

EventLoopPool::~EventLoopPool() { Stop(); }

bool EventLoopPool::Start() {
  loops_.reserve(options_.num_threads);
  for (std::size_t i = 0; i < options_.num_threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    epoll_event wake_event{};
    wake_event.events = EPOLLIN;
    wake_event.data.fd = loop->wake_fd;
    const bool ready = loop->epoll_fd >= 0 && loop->wake_fd >= 0 &&
                       ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD,
                                   loop->wake_fd, &wake_event) == 0;
    loops_.push_back(std::move(loop));
    if (!ready) {
      // Close this loop's descriptors and every earlier loop's too.
      for (const std::unique_ptr<Loop>& made : loops_) {
        if (made->epoll_fd >= 0) ::close(made->epoll_fd);
        if (made->wake_fd >= 0) ::close(made->wake_fd);
      }
      loops_.clear();
      return false;
    }
  }
  for (const std::unique_ptr<Loop>& loop : loops_) {
    loop->thread = std::thread([this, raw = loop.get()] { Run(raw); });
  }
  started_ = true;
  return true;
}

void EventLoopPool::Adopt(int fd, Protocol protocol) {
  if (fd < 0) return;
  if (loops_.empty()) {
    ::close(fd);
    return;
  }
  const std::size_t index =
      next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
  Loop* loop = loops_[index].get();
  {
    MutexLock lock(loop->mailbox_mutex);
    loop->pending.emplace_back(fd, protocol);
  }
  const uint64_t one = 1;
  (void)!::write(loop->wake_fd, &one, sizeof(one));
}

void EventLoopPool::Stop() {
  if (!started_) return;
  started_ = false;
  for (const std::unique_ptr<Loop>& loop : loops_) {
    {
      MutexLock lock(loop->mailbox_mutex);
      loop->stopping = true;
    }
    const uint64_t one = 1;
    (void)!::write(loop->wake_fd, &one, sizeof(one));
  }
  for (const std::unique_ptr<Loop>& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
    ::close(loop->epoll_fd);
    ::close(loop->wake_fd);
  }
  loops_.clear();
}

void EventLoopPool::AdoptPending(Loop* loop) {
  std::vector<std::pair<int, Protocol>> adopted;
  {
    MutexLock lock(loop->mailbox_mutex);
    adopted.swap(loop->pending);
  }
  for (const auto& [fd, protocol] : adopted) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (!SetNonBlocking(fd) ||
        ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      continue;
    }
    loop->conns.emplace(fd, std::make_unique<Conn>(fd, protocol));
    connections_live_.fetch_add(1, std::memory_order_acq_rel);
    SKETCH_COUNTER_INC("server.epoll.connections_adopted");
  }
}

void EventLoopPool::Run(Loop* loop) {
  epoll_event events[64];
  bool stopping = false;
  while (!stopping) {
    const int n = ::epoll_wait(loop->epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll set torn down under us: nothing left to serve
    }
    SKETCH_COUNTER_INC("server.epoll.wakeups");
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop->wake_fd) {
        uint64_t drained = 0;
        (void)!::read(loop->wake_fd, &drained, sizeof(drained));
        AdoptPending(loop);
        MutexLock lock(loop->mailbox_mutex);
        stopping = loop->stopping;
        continue;
      }
      const auto it = loop->conns.find(fd);
      if (it == loop->conns.end()) continue;  // closed earlier this batch
      Conn* conn = it->second.get();
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(loop, fd);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        if (!ServeReadable(conn)) {
          CloseConn(loop, fd);
          continue;
        }
        UpdateInterest(loop, conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!FlushOutbound(conn)) {
          CloseConn(loop, fd);
          continue;
        }
        const bool drained = conn->consumed >= conn->outbound.size();
        conn->want_write = !drained;
        if (drained && conn->closing) {
          CloseConn(loop, fd);
          continue;
        }
        UpdateInterest(loop, conn);
      }
    }
  }
  // Teardown: hand the kernel whatever queued bytes it takes without
  // blocking, then close. A client that stopped reading cannot hold Stop
  // up; a kShutdown ack has drained before the shutdown callback fires.
  for (const auto& [fd, conn] : loop->conns) {
    FlushOutbound(conn.get());
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
    connections_live_.fetch_sub(1, std::memory_order_acq_rel);
    SKETCH_COUNTER_INC("server.epoll.connections_closed");
  }
  loop->conns.clear();
}

bool EventLoopPool::ServeReadable(Conn* conn) {
  bool peer_closed = false;
  uint64_t trace_id = 0;
  const bool keep = conn->protocol == Protocol::kHttp
                        ? ReadHttpRequest(conn, &peer_closed)
                        : ReadFrames(conn, &peer_closed, &trace_id);
  if (!keep) return false;
  {
    // Tag the inline flush with the run's trace id so a sampled request's
    // timeline reaches the socket write. (Residual EPOLLOUT flushes are
    // untagged; the inline path is the common case.)
    SKETCH_TRACE_SPAN_ID("server.tx_write", trace_id);
    if (!FlushOutbound(conn)) return false;
  }
  const std::size_t backlog = conn->outbound.size() - conn->consumed;
  if (backlog == 0) {
    conn->want_write = false;
    return !conn->closing && !peer_closed;
  }
  if (backlog > options_.max_outbound_bytes) {
    // Backpressure: the client is pipelining faster than it reads.
    // Evicting it bounds response memory at max_outbound_bytes per
    // connection instead of letting one slow reader pin the daemon.
    SKETCH_COUNTER_INC("server.epoll.slow_clients_evicted");
    return false;
  }
  if (peer_closed) return false;  // cannot deliver the rest anyway
  conn->want_write = true;
  return true;
}

bool EventLoopPool::ReadFrames(Conn* conn, bool* peer_closed,
                               uint64_t* trace_id) {
  // Each read lands in the decoder's write window, and the frames it
  // completes are drained before the next read, so a frame whose rest is
  // larger than one window is received straight into its own payload.
  // The whole run goes through HandleFrames so consecutive same-sketch
  // ingest frames share one lookup + one exclusive lock. Frames
  // pipelined after a kShutdown are dropped.
  const uint64_t rx_start_ns = MonotonicNowNs();
  std::vector<Frame> frames;
  bool bad_frame = false;
  while (!bad_frame) {
    const std::span<uint8_t> window = conn->decoder.WriteWindow();
    const ssize_t n = ::recv(conn->fd, window.data(), window.size(), 0);
    if (n == 0) {
      *peer_closed = true;
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // torn connection
    }
    conn->decoder.Commit(static_cast<std::size_t>(n));
    while (!conn->closing) {
      Frame frame;
      const DecodeStatus status = conn->decoder.Next(&frame);
      if (status == DecodeStatus::kNeedMore) break;
      if (status == DecodeStatus::kBadFrame) {
        bad_frame = true;
        break;
      }
      if (frame.opcode == Opcode::kShutdown) conn->closing = true;
      if (*trace_id == 0) *trace_id = frame.trace_id;
      frames.push_back(std::move(frame));
    }
    if (static_cast<std::size_t>(n) < window.size()) break;
  }
  if (*trace_id != 0) {
    telemetry::TraceRecorder::Instance().RecordSpan(
        "server.rx_decode", rx_start_ns, MonotonicNowNs() - rx_start_ns,
        *trace_id);
  }

  if (!frames.empty()) {
    std::vector<std::vector<uint8_t>> responses;
    service_->HandleFrames(frames, &responses);
    for (std::vector<uint8_t>& response : responses) {
      if (conn->outbound.empty()) {
        // No backlog: the response becomes the outbound buffer, uncopied.
        conn->outbound = std::move(response);
      } else {
        conn->outbound.insert(conn->outbound.end(), response.begin(),
                              response.end());
      }
    }
  }
  if (bad_frame) {
    // Best-effort diagnostic, then drop: the stream cannot be
    // resynchronized after a framing violation.
    ErrorResponse error;
    error.code = conn->decoder.error_code();
    error.message = conn->decoder.error();
    const std::vector<uint8_t> encoded = EncodeError(error);
    conn->outbound.insert(conn->outbound.end(), encoded.begin(),
                          encoded.end());
    SKETCH_COUNTER_INC("server.connections_framing_error");
    FlushOutbound(conn);
    return false;
  }
  return true;
}

bool EventLoopPool::ReadHttpRequest(Conn* conn, bool* peer_closed) {
  // HTTP/1.0 GETs have no body, so the head through "\r\n\r\n" is the
  // whole request. Until it is answered, a read takes no more than the
  // head cap leaves room for; after, bytes are read and dropped.
  constexpr std::size_t kCap = HttpExposition::kMaxRequestBytes;
  std::string& head = conn->request_head;
  char chunk[kCap];
  for (;;) {
    const std::size_t room = conn->closing ? kCap : kCap - head.size();
    const ssize_t n = ::recv(conn->fd, chunk, room, 0);
    if (n == 0) {
      *peer_closed = true;
      return true;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    if (!conn->closing) {
      const std::size_t scan_from = head.size() < 3 ? 0 : head.size() - 3;
      head.append(chunk, static_cast<std::size_t>(n));
      if (head.find("\r\n\r\n", scan_from) != std::string::npos) {
        const std::string response = http_->HandleHead(head);
        conn->outbound.insert(conn->outbound.end(), response.begin(),
                              response.end());
        conn->closing = true;
        head = {};
      } else if (head.size() == kCap) {
        return false;  // over the cap: close without a response
      }
    }
    if (static_cast<std::size_t>(n) < room) return true;
  }
}

bool EventLoopPool::FlushOutbound(Conn* conn) {
  while (conn->consumed < conn->outbound.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->outbound.data() + conn->consumed,
               conn->outbound.size() - conn->consumed, MSG_NOSIGNAL);
    if (n > 0) {
      conn->consumed += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  if (conn->consumed == conn->outbound.size()) {
    // Release the drained buffer, capacity and all: a connection that
    // once received a snapshot must not keep its size until it closes.
    // The next response is moved into the empty buffer anyway.
    conn->outbound = {};
    conn->consumed = 0;
  }
  return true;
}

void EventLoopPool::UpdateInterest(Loop* loop, Conn* conn) {
  if (conn->want_write == conn->epollout_armed) return;  // already installed
  epoll_event event{};
  event.events = EPOLLIN | (conn->want_write ? EPOLLOUT : 0u);
  event.data.fd = conn->fd;
  if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &event) == 0) {
    conn->epollout_armed = conn->want_write;
    if (conn->want_write) SKETCH_COUNTER_INC("server.epoll.write_waits");
  }
}

void EventLoopPool::CloseConn(Loop* loop, int fd) {
  const auto it = loop->conns.find(fd);
  if (it == loop->conns.end()) return;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  const Conn& conn = *it->second;
  const bool shutdown_acked = conn.protocol == Protocol::kSketchwire &&
                              conn.closing &&
                              conn.consumed >= conn.outbound.size();
  loop->conns.erase(it);
  connections_live_.fetch_sub(1, std::memory_order_acq_rel);
  SKETCH_COUNTER_INC("server.epoll.connections_closed");
  SKETCH_COUNTER_INC("server.connections_served");
  if (shutdown_acked && shutdown_callback_ &&
      !shutdown_notified_.exchange(true, std::memory_order_acq_rel)) {
    shutdown_callback_();
  }
}

}  // namespace sketch::server
