// Byte transports the wire protocol runs over.
//
// serve/protocol.h defines pure buffer codecs; this header supplies the
// blocking byte-stream abstraction the client side moves frames through
// (serve/server.h wraps a socket in FdTransport), plus a fault-injecting
// decorator for the failover tests and benches. ReadFrame / WriteFrame
// are the blocking frame I/O: ReadFrame reads exactly one validated
// header and then exactly header.body_length body bytes -- never more --
// so a malformed frame cannot make a reader over-read into the next
// frame. (The server side decodes incrementally with FrameDecoder.)
#ifndef IFSKETCH_SERVE_TRANSPORT_H_
#define IFSKETCH_SERVE_TRANSPORT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "serve/protocol.h"

namespace ifsketch::serve {

/// One span of a vectored write (mirrors struct iovec without pulling
/// <sys/uio.h> into transport-independent code).
struct ConstBuffer {
  const void* data = nullptr;
  std::size_t size = 0;
};

/// A blocking, reliable, ordered byte stream (one direction per method).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Writes all `size` bytes; false on a closed/failed peer.
  virtual bool WriteAll(const void* data, std::size_t size) = 0;

  /// Writes every buffer, in order, as one logical write; false on a
  /// closed/failed peer (the stream position is then unspecified, like a
  /// partial WriteAll). The default loops WriteAll; fd-backed transports
  /// override with writev so a pipelined batch of frames (headers and
  /// bodies as separate spans) goes out without a staging-buffer copy.
  virtual bool WritevAll(const ConstBuffer* buffers, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      if (buffers[i].size == 0) continue;
      if (!WriteAll(buffers[i].data, buffers[i].size)) return false;
    }
    return true;
  }

  /// Reads exactly `size` bytes; false on EOF or error before `size`
  /// bytes arrive. A clean EOF at offset 0 also returns false -- callers
  /// that care use ReadFrame's distinction below.
  virtual bool ReadAll(void* data, std::size_t size) = 0;

  /// Signals end-of-stream to the peer's reads; further writes fail.
  virtual void CloseWrite() = 0;

  /// Bounds every subsequent read: a read that makes no progress for
  /// `timeout` fails as if the peer died, which is how client deadlines
  /// turn a stalled server into a retryable transport error instead of a
  /// hung thread. Zero restores blocking reads. Returns false when the
  /// transport cannot enforce timeouts (the default); callers fall back
  /// to unbounded blocking reads.
  virtual bool SetReadTimeout(std::chrono::milliseconds timeout) {
    (void)timeout;
    return false;
  }
};

/// Result of ReadFrame: distinguishes a clean end-of-stream (peer closed
/// between frames) from a protocol violation (bad header, short body).
enum class ReadResult {
  kFrame,      ///< `frame` holds a complete validated frame
  kEof,        ///< stream ended cleanly before any header byte
  kMalformed,  ///< bad magic/version/opcode/length or truncated frame
};

/// Reads one frame. Consumes exactly kFrameHeaderBytes + body_length
/// bytes on success and never reads past the declared body length.
ReadResult ReadFrame(Transport& transport, Frame* frame);

/// Encodes and writes one frame; false when the body is over-long or the
/// transport fails.
bool WriteFrame(Transport& transport, Opcode opcode, std::uint8_t status,
                std::string_view body);

// ------------------------------------------------------ fault injection

/// What FaultyTransport may do to the byte stream, on a seeded schedule.
/// Every probability is evaluated independently per WriteAll/ReadAll
/// call from a deterministic PRNG, so a given (plan, seed, call
/// sequence) always fails at the same operations -- tests replay the
/// exact failure they assert about. Once any fault fires, the transport
/// is dead: every later operation fails, exactly like a real broken
/// socket (there is no such thing as a connection that errors once and
/// then heals).
struct FaultPlan {
  std::uint64_t seed = 1;
  double fail_read = 0.0;      ///< P(a read errors out)
  double fail_write = 0.0;     ///< P(a write is dropped whole: peer sees EOF)
  double truncate_write = 0.0; ///< P(a write delivers a prefix, then dies)
  double delay_prob = 0.0;     ///< P(an op stalls for `delay` first)
  std::chrono::milliseconds delay{0};
  /// Hard kill after this many total bytes moved (0 = off): models a
  /// peer dying at a byte offset rather than an op boundary, so frames
  /// get split exactly at the configured point.
  std::size_t fail_after_bytes = 0;
};

/// Decorator that injects FaultPlan faults into any Transport. Delays
/// happen before the op; drop/truncate/error faults kill the connection
/// permanently (dead() turns true and the inner write side is closed so
/// a blocked peer unblocks). Used by the failover tests and benches to
/// prove the retry/failover paths end-to-end without real networks.
class FaultyTransport : public Transport {
 public:
  FaultyTransport(std::unique_ptr<Transport> inner, FaultPlan plan);

  bool WriteAll(const void* data, std::size_t size) override;
  bool ReadAll(void* data, std::size_t size) override;
  void CloseWrite() override;
  bool SetReadTimeout(std::chrono::milliseconds timeout) override;

  /// True once a fault has killed the connection.
  bool dead() const { return dead_; }

 private:
  /// True with probability `p`, from the seeded schedule.
  bool Roll(double p);
  /// Applies the delay fault (if the schedule picks one) before an op.
  void MaybeDelay();
  /// Kills the connection: dead_ latches and the inner write side closes
  /// so a peer blocked on its read unblocks.
  void Kill();

  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;
  std::uint64_t rng_state_;
  std::size_t bytes_moved_ = 0;
  bool dead_ = false;
};

}  // namespace ifsketch::serve

#endif  // IFSKETCH_SERVE_TRANSPORT_H_
