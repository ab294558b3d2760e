// Request dispatch, plus the socket transport the client side uses.
//
// DispatchRequest is the whole server behavior for one request frame and
// is transport-independent: the epoll reactor (serve/reactor.h), the one
// server loop, decodes frames off its sockets and hands each to
// DispatchRequest on a worker, which decodes the body, routes it through
// a shared Router (coalescing across connections happens there) and
// encodes exactly one reply frame. A query body is decoded once into a
// flat core::QueryBatch, checked once against the acquired sketch, and
// that same batch is what the router and the kernels read; the answers
// go into the reply body with one copy. Framing errors never get this far:
// the reactor answers a malformed frame with one kError frame and closes
// the connection (a bad header loses frame sync, and length-prefixed
// framing has no boundary markers to resynchronize on).
//
// FdTransport wraps a connected socket for the blocking client side
// (serve/client.h); TcpConnect opens one to a loopback port.
#ifndef IFSKETCH_SERVE_SERVER_H_
#define IFSKETCH_SERVE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "serve/router.h"
#include "serve/transport.h"

namespace ifsketch::serve {

/// One encoded reply, ready to frame: the unit DispatchRequest returns
/// and the reactor's in-order reply queue carries.
struct ReplyFrame {
  Opcode opcode = Opcode::kError;
  std::uint8_t status = 0;  ///< Status byte on kError replies, else 0
  std::string body;
};

/// Answers one request frame: decode, route through `router`, encode.
/// Every request opcode (and every failure) yields exactly one reply
/// frame; a non-request opcode in a valid frame yields a kError reply
/// without killing anything (the frame was consumed, framing holds).
/// Counts serve_requests_total{op=} and runs under a RequestTrace.
/// Thread-safe against one Router; per-op counters are cached
/// thread-local so the hot path never takes the registry mutex.
ReplyFrame DispatchRequest(Router& router, Opcode opcode,
                           std::string_view body);

/// Transport over an open file descriptor (socket); owns and closes it.
class FdTransport : public Transport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}
  ~FdTransport() override;

  bool WriteAll(const void* data, std::size_t size) override;
  /// writev(2): all spans go out in one gathering write path, no staging
  /// copy -- the pipelined client sends a whole batch of frames this way.
  bool WritevAll(const ConstBuffer* buffers, std::size_t count) override;
  bool ReadAll(void* data, std::size_t size) override;
  void CloseWrite() override;

  /// SO_RCVTIMEO: a recv stalled past the timeout fails the read (the
  /// client-deadline contract). Zero restores blocking reads.
  bool SetReadTimeout(std::chrono::milliseconds timeout) override;

 private:
  int fd_;
};

/// Connects to 127.0.0.1:`port`; nullptr on failure.
std::unique_ptr<Transport> TcpConnect(std::uint16_t port);

}  // namespace ifsketch::serve

#endif  // IFSKETCH_SERVE_SERVER_H_
