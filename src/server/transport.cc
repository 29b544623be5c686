#include "server/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace sketch::server {

bool WriteAll(ByteStream* stream, const uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const std::ptrdiff_t n = stream->Write(data + written, size - written);
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool WriteAll(ByteStream* stream, const std::vector<uint8_t>& bytes) {
  return WriteAll(stream, bytes.data(), bytes.size());
}

// --- FaultyStream ---------------------------------------------------------

std::ptrdiff_t FaultyStream::Read(uint8_t* data, std::size_t size) {
  if (plan_.delay_micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(plan_.delay_micros));
  }
  if (plan_.fail_read_after_bytes > 0 &&
      total_read_ >= plan_.fail_read_after_bytes) {
    return -1;
  }
  std::size_t capped = size;
  if (plan_.max_read_chunk > 0) capped = std::min(capped, plan_.max_read_chunk);
  if (plan_.fail_read_after_bytes > 0) {
    capped = std::min(capped, plan_.fail_read_after_bytes - total_read_);
  }
  const std::ptrdiff_t n = inner_->Read(data, capped);
  if (n > 0) total_read_ += static_cast<std::size_t>(n);
  return n;
}

std::ptrdiff_t FaultyStream::Write(const uint8_t* data, std::size_t size) {
  if (plan_.delay_micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(plan_.delay_micros));
  }
  if (plan_.fail_write_after_bytes > 0 &&
      total_written_ >= plan_.fail_write_after_bytes) {
    return -1;
  }
  std::size_t capped = size;
  if (plan_.max_write_chunk > 0) {
    capped = std::min(capped, plan_.max_write_chunk);
  }
  if (plan_.fail_write_after_bytes > 0) {
    capped = std::min(capped, plan_.fail_write_after_bytes - total_written_);
  }
  const std::ptrdiff_t n = inner_->Write(data, capped);
  if (n > 0) total_written_ += static_cast<std::size_t>(n);
  return n;
}

// --- SocketStream ---------------------------------------------------------

std::ptrdiff_t SocketStream::Read(uint8_t* data, std::size_t size) {
  // relaxed: the fd value is the entire communicated state (no memory is
  // published through it); the recv/close interleaving is resolved by the
  // kernel, and Close's shutdown() unblocks a recv already in flight.
  const int fd = fd_.load(std::memory_order_relaxed);
  if (fd < 0) return -1;
  while (true) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n >= 0) return static_cast<std::ptrdiff_t>(n);
    if (errno == EINTR) continue;
    return -1;
  }
}

std::ptrdiff_t SocketStream::Write(const uint8_t* data, std::size_t size) {
  // relaxed: see Read.
  const int fd = fd_.load(std::memory_order_relaxed);
  if (fd < 0) return -1;
  while (true) {
    // MSG_NOSIGNAL: a peer that disconnected mid-frame must surface as a
    // -1 return, not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<std::ptrdiff_t>(n);
    if (errno == EINTR) continue;
    return -1;
  }
}

void SocketStream::Close() {
  // acq_rel exchange: exactly one closer claims the descriptor (atomicity
  // prevents double-close of a possibly-reused fd) and the winner's
  // shutdown/close are ordered after any prior writes it made.
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

// --- SocketListener -------------------------------------------------------

SocketListener::~SocketListener() { Close(); }

std::unique_ptr<SocketListener> SocketListener::ListenTcp(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    return nullptr;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<SocketListener>(SocketListener::Private{}, fd,
                                          ntohs(bound.sin_port),
                                          /*unix_path=*/"");
}

std::unique_ptr<SocketListener> SocketListener::ListenUnix(
    const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return nullptr;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<SocketListener>(SocketListener::Private{}, fd,
                                          /*port=*/0, path);
}

std::unique_ptr<ByteStream> SocketListener::Accept() {
  const int client = AcceptRaw();
  return client < 0 ? nullptr : std::make_unique<SocketStream>(client);
}

int SocketListener::AcceptRaw() {
  // relaxed: see SocketStream::Read — the fd carries no published memory,
  // and a Close racing with accept() surfaces as an error return.
  const int fd = fd_.load(std::memory_order_relaxed);
  if (fd < 0) return -1;
  while (true) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) {
      // Request/response framing over loopback: Nagle buys nothing and
      // can stall small pipelined responses behind delayed ACKs. A
      // failure (e.g. Unix-domain listener) is harmless.
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return client;
    }
    if (errno == EINTR) continue;
    return -1;  // listener closed or unrecoverable error
  }
}

void SocketListener::Close() {
  // Close races with Accept and with itself (I/O threads, Stop, and the
  // destructor all call it); the exchange picks a single winner, which
  // also makes the unlink below happen exactly once.
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd < 0) return;
  // shutdown() unblocks a concurrent Accept before the fd goes away.
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

std::unique_ptr<ByteStream> ConnectTcp(const std::string& host,
                                       uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return nullptr;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<SocketStream>(fd);
}

std::unique_ptr<ByteStream> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return nullptr;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<SocketStream>(fd);
}

}  // namespace sketch::server
