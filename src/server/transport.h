#ifndef SKETCH_SERVER_TRANSPORT_H_
#define SKETCH_SERVER_TRANSPORT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

/// \file
/// Byte-stream transports for the sketch daemon.
///
/// The client speaks to an abstract ByteStream: a kernel socket (TCP or
/// Unix-domain), or a fault-injecting wrapper that deliberately
/// fragments, stalls, and severs the client's side of a connection so the
/// event loop sees every partial-read and disconnect path. The daemon's
/// event loop (see event_loop.h) manages the raw descriptors
/// SocketListener accepts, on the sketchwire and the HTTP port alike.

namespace sketch::server {

/// Minimal blocking byte stream. Implementations are used by exactly one
/// reader thread and one writer thread at a time.
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Reads up to `size` bytes into `data`. Blocks until at least one byte
  /// is available. Returns the byte count, 0 on clean end-of-stream, or
  /// -1 on error / torn connection.
  virtual std::ptrdiff_t Read(uint8_t* data, std::size_t size) = 0;

  /// Writes up to `size` bytes from `data`. Returns the count written
  /// (possibly short) or -1 on error / torn connection.
  virtual std::ptrdiff_t Write(const uint8_t* data, std::size_t size) = 0;

  /// Closes both directions; unblocks any blocked Read on the peer.
  virtual void Close() = 0;
};

/// Writes the entire buffer, looping over short writes. Returns false if
/// the stream errors out first.
bool WriteAll(ByteStream* stream, const uint8_t* data, std::size_t size);
bool WriteAll(ByteStream* stream, const std::vector<uint8_t>& bytes);

// --- Fault injection ------------------------------------------------------

/// Deterministic stream-level faults, applied by FaultyStream. The
/// defaults inject nothing.
struct FaultPlan {
  /// Caps each Read's return to this many bytes (short reads force the
  /// frame decoder through every resumption path). 0 = no cap.
  std::size_t max_read_chunk = 0;

  /// Caps each Write similarly, so WriteAll must loop. 0 = no cap.
  std::size_t max_write_chunk = 0;

  /// After this many bytes have been written in total, every further
  /// Write fails with -1 — a mid-frame disconnect as seen by the sender.
  /// 0 = never.
  std::size_t fail_write_after_bytes = 0;

  /// After this many bytes have been read in total, every further Read
  /// reports -1 — the peer vanished mid-frame. 0 = never.
  std::size_t fail_read_after_bytes = 0;

  /// Sleep this long before every Read/Write — a slow client pacing the
  /// stream one fragment at a time. 0 = no delay.
  std::size_t delay_micros = 0;
};

/// Wraps another stream and applies a FaultPlan to every call.
class FaultyStream : public ByteStream {
 public:
  FaultyStream(std::unique_ptr<ByteStream> inner, const FaultPlan& plan)
      : inner_(std::move(inner)), plan_(plan) {}

  std::ptrdiff_t Read(uint8_t* data, std::size_t size) override;
  std::ptrdiff_t Write(const uint8_t* data, std::size_t size) override;
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<ByteStream> inner_;
  FaultPlan plan_;
  std::size_t total_read_ = 0;
  std::size_t total_written_ = 0;
};

// --- Kernel sockets -------------------------------------------------------

/// A connected TCP or Unix-domain socket. `Close()` may race with a
/// blocked `Read`/`Write` on another thread (a client torn down while a
/// reader thread is blocked on its reply), so the descriptor is atomic
/// and Close claims it with an exchange: exactly one closer wins, and a
/// loser (or a racing Read) sees -1 instead of double-closing a
/// possibly-reused descriptor.
class SocketStream : public ByteStream {
 public:
  explicit SocketStream(int fd) : fd_(fd) {}
  ~SocketStream() override { Close(); }

  std::ptrdiff_t Read(uint8_t* data, std::size_t size) override;
  std::ptrdiff_t Write(const uint8_t* data, std::size_t size) override;
  void Close() override;

 private:
  std::atomic<int> fd_{-1};
};

/// Listening socket: TCP on 127.0.0.1 or a Unix-domain path.
class SocketListener {
  /// Passkey: construction goes through the Listen* factories, but
  /// make_unique still needs a public constructor.
  struct Private {};

 public:
  SocketListener(Private, int fd, uint16_t port, std::string unix_path);
  ~SocketListener();

  /// AcceptRaw's result when an accept failed but the listener stays
  /// open: descriptors or kernel memory ran out, or a client went away
  /// before it was accepted.
  static constexpr int kTransientError = -2;

  /// Listens on 127.0.0.1:port (port 0 picks a free port; see port()).
  /// Returns nullptr on failure.
  static std::unique_ptr<SocketListener> ListenTcp(uint16_t port);

  /// Listens on a Unix-domain socket path (unlinks a stale one first).
  /// Returns nullptr on failure.
  static std::unique_ptr<SocketListener> ListenUnix(const std::string& path);

  /// Blocks for the next connection and returns its raw descriptor (the
  /// caller owns it), kTransientError after a failed accept, or -1 once
  /// the listener is closed. The epoll event loop manages the descriptors
  /// of both ports directly. Out of descriptors (EMFILE), the listener
  /// frees a spare one, accepts the connection at the head of the queue
  /// and closes it, so that client is refused instead of left waiting,
  /// then reserves the spare again.
  int AcceptRaw();

  /// Unblocks AcceptRaw and closes the listening socket. Safe to call from
  /// any thread, concurrently with AcceptRaw and with itself (the daemon's
  /// kShutdown path closes the listener from an I/O thread while the
  /// accept thread blocks in AcceptRaw).
  void Close();

  /// Bound TCP port (after ListenTcp with port 0), or 0 for Unix sockets.
  uint16_t port() const { return port_; }

 private:
  // Same atomic-exchange close protocol as SocketStream; port_ and
  // unix_path_ are immutable after construction so AcceptRaw/Close need
  // no lock around them.
  std::atomic<int> fd_{-1};
  const uint16_t port_ = 0;
  const std::string unix_path_;
  int spare_fd_ = -1;  // only AcceptRaw (one thread) and the destructor
                       // touch it; -1 while it could not be reserved
};

/// Connects to a daemon over TCP (host is an IPv4 literal such as
/// "127.0.0.1") or a Unix-domain path. Returns nullptr on failure.
std::unique_ptr<ByteStream> ConnectTcp(const std::string& host, uint16_t port);
std::unique_ptr<ByteStream> ConnectUnix(const std::string& path);

}  // namespace sketch::server

#endif  // SKETCH_SERVER_TRANSPORT_H_
