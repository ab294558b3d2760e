#include "serve/transport.h"

#include <thread>

namespace ifsketch::serve {

ReadResult ReadFrame(Transport& transport, Frame* frame) {
  char header[kFrameHeaderBytes];
  // Peek the first byte separately so a peer that closed between frames
  // reads as kEof, while one that died mid-header reads as kMalformed.
  if (!transport.ReadAll(header, 1)) return ReadResult::kEof;
  if (!transport.ReadAll(header + 1, kFrameHeaderBytes - 1)) {
    return ReadResult::kMalformed;
  }
  const auto parsed = DecodeFrameHeader(header, kFrameHeaderBytes);
  if (!parsed.has_value()) return ReadResult::kMalformed;
  frame->header = *parsed;
  frame->body.resize(parsed->body_length);
  if (parsed->body_length > 0 &&
      !transport.ReadAll(frame->body.data(), parsed->body_length)) {
    return ReadResult::kMalformed;
  }
  return ReadResult::kFrame;
}

bool WriteFrame(Transport& transport, Opcode opcode, std::uint8_t status,
                std::string_view body) {
  std::string wire;
  if (!EncodeFrame(opcode, status, body, &wire)) return false;
  return transport.WriteAll(wire.data(), wire.size());
}

// ------------------------------------------------------ fault injection

namespace {

/// splitmix64: tiny, seedable, and good enough to schedule faults; the
/// transport must not depend on util/random.h just for a Bernoulli.
std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 FaultPlan plan)
    : inner_(std::move(inner)), plan_(plan), rng_state_(plan.seed) {}

bool FaultyTransport::Roll(double p) {
  if (p <= 0.0) return false;
  return (SplitMix64(&rng_state_) >> 11) * 0x1.0p-53 < p;
}

void FaultyTransport::MaybeDelay() {
  if (plan_.delay.count() > 0 && Roll(plan_.delay_prob)) {
    std::this_thread::sleep_for(plan_.delay);
  }
}

void FaultyTransport::Kill() {
  dead_ = true;
  // Hang up the inner write side so a peer blocked reading the frame we
  // just mangled sees EOF instead of waiting forever.
  inner_->CloseWrite();
}

bool FaultyTransport::WriteAll(const void* data, std::size_t size) {
  if (dead_) return false;
  MaybeDelay();
  if (plan_.fail_after_bytes > 0 &&
      bytes_moved_ + size > plan_.fail_after_bytes) {
    // Die exactly at the byte offset: deliver the allowed prefix so the
    // peer sees a frame cut mid-stream, not at an op boundary.
    const std::size_t deliver = plan_.fail_after_bytes - bytes_moved_;
    if (deliver > 0) inner_->WriteAll(data, deliver);
    bytes_moved_ += deliver;
    Kill();
    return false;
  }
  if (Roll(plan_.fail_write)) {  // dropped whole: peer never sees a byte
    Kill();
    return false;
  }
  if (size > 1 && Roll(plan_.truncate_write)) {
    const std::size_t prefix =
        1 + static_cast<std::size_t>(SplitMix64(&rng_state_) % (size - 1));
    inner_->WriteAll(data, prefix);
    bytes_moved_ += prefix;
    Kill();
    return false;
  }
  if (!inner_->WriteAll(data, size)) {
    dead_ = true;
    return false;
  }
  bytes_moved_ += size;
  return true;
}

bool FaultyTransport::ReadAll(void* data, std::size_t size) {
  if (dead_) return false;
  MaybeDelay();
  if (plan_.fail_after_bytes > 0 &&
      bytes_moved_ + size > plan_.fail_after_bytes) {
    Kill();
    return false;
  }
  if (Roll(plan_.fail_read)) {
    Kill();
    return false;
  }
  if (!inner_->ReadAll(data, size)) {
    dead_ = true;
    return false;
  }
  bytes_moved_ += size;
  return true;
}

void FaultyTransport::CloseWrite() { inner_->CloseWrite(); }

bool FaultyTransport::SetReadTimeout(std::chrono::milliseconds timeout) {
  return inner_->SetReadTimeout(timeout);
}

}  // namespace ifsketch::serve
