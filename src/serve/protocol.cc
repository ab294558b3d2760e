#include "serve/protocol.h"

#include <algorithm>
#include <cstring>

namespace ifsketch::serve {
namespace {

template <typename T>
void PutRaw(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void PutString(std::string* out, std::string_view s) {
  PutRaw<std::uint16_t>(out, static_cast<std::uint16_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Bounds-checked cursor over a body buffer: every Get advances only on
/// success, so a decoder can bail at the first short read.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  template <typename T>
  bool Get(T& value) {
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool GetString(std::string& value) {
    std::uint16_t len = 0;
    if (!Get(len) || data_.size() - pos_ < len) return false;
    value.assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  /// The next `n` bytes, or null (consuming nothing) when fewer remain.
  const char* Take(std::size_t n) {
    if (data_.size() - pos_ < n) return nullptr;
    const char* bytes = data_.data() + pos_;
    pos_ += n;
    return bytes;
  }

  bool Done() const { return pos_ == data_.size(); }

  std::size_t Remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

bool KnownOpcode(std::uint8_t byte) {
  switch (static_cast<Opcode>(byte)) {
    case Opcode::kEstimate:
    case Opcode::kAreFrequent:
    case Opcode::kInfo:
    case Opcode::kRefresh:
    case Opcode::kSubscribe:
    case Opcode::kHealth:
    case Opcode::kStats:
    case Opcode::kEstimateReply:
    case Opcode::kAreFrequentReply:
    case Opcode::kInfoReply:
    case Opcode::kRefreshReply:
    case Opcode::kSubscribeReply:
    case Opcode::kHealthReply:
    case Opcode::kStatsReply:
    case Opcode::kError:
      return true;
  }
  return false;
}

}  // namespace

bool EncodeFrame(Opcode opcode, std::uint8_t status, std::string_view body,
                 std::string* out) {
  if (body.size() > kMaxBodyBytes) return false;
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(opcode, status, static_cast<std::uint32_t>(body.size()),
                    header);
  out->append(header, kFrameHeaderBytes);
  out->append(body.data(), body.size());
  return true;
}

bool EncodeFrameHeader(Opcode opcode, std::uint8_t status,
                       std::uint32_t body_length, char* out) {
  if (body_length > kMaxBodyBytes) return false;
  std::memcpy(out, kFrameMagic, sizeof(kFrameMagic));
  const std::uint16_t version = kProtocolVersion;
  std::memcpy(out + 4, &version, sizeof(version));
  out[6] = static_cast<char>(opcode);
  out[7] = static_cast<char>(status);
  std::memcpy(out + 8, &body_length, sizeof(body_length));
  return true;
}

bool EncodeQueryRequest(const QueryRequest& request, std::string* body) {
  if (request.sketch.size() > 0xffff) return false;
  if (request.queries.size() > kMaxQueriesPerRequest) return false;
  // Size first, so a refused query leaves `body` untouched and the write
  // pass never reallocates.
  std::size_t bytes = 2 + request.sketch.size() + 4;
  for (const auto& attrs : request.queries) {
    if (attrs.size() > 0xffff) return false;
    bytes += 2 + 4 * attrs.size();
  }
  const std::size_t start = body->size();
  body->resize(start + bytes);
  char* out = body->data() + start;
  const auto put = [&out](const void* data, std::size_t size) {
    std::memcpy(out, data, size);
    out += size;
  };
  const auto name_len = static_cast<std::uint16_t>(request.sketch.size());
  put(&name_len, 2);
  put(request.sketch.data(), request.sketch.size());
  const auto count = static_cast<std::uint32_t>(request.queries.size());
  put(&count, 4);
  for (const auto& attrs : request.queries) {
    const auto size = static_cast<std::uint16_t>(attrs.size());
    put(&size, 2);
    for (const std::uint32_t attr : attrs) put(&attr, 4);
  }
  return true;
}

void EncodeEstimateReply(const std::vector<double>& answers,
                         std::string* body) {
  body->reserve(body->size() + 4 + answers.size() * sizeof(double));
  PutRaw<std::uint32_t>(body, static_cast<std::uint32_t>(answers.size()));
  if (answers.empty()) return;
  body->append(reinterpret_cast<const char*>(answers.data()),
               answers.size() * sizeof(double));
}

void EncodeAreFrequentReply(const std::vector<bool>& answers,
                            std::string* body) {
  PutRaw<std::uint32_t>(body, static_cast<std::uint32_t>(answers.size()));
  // Pack bits LSB-first, the same order the IFSK payload uses, straight
  // into the body; padding bits stay clear.
  const std::size_t start = body->size();
  body->resize(start + (answers.size() + 7) / 8, '\0');
  char* bytes = body->data() + start;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    if (answers[i]) bytes[i / 8] |= static_cast<char>(1 << (i % 8));
  }
}

bool EncodeInfoRequest(std::string_view sketch, std::string* body) {
  if (sketch.size() > 0xffff) return false;
  PutString(body, sketch);
  return true;
}

void EncodeInfoReply(const SketchInfo& info, std::string* body) {
  PutString(body, info.algorithm);
  PutRaw<std::uint32_t>(body, info.k);
  PutRaw<double>(body, info.eps);
  PutRaw<double>(body, info.delta);
  PutRaw<std::uint8_t>(body, info.scope);
  PutRaw<std::uint8_t>(body, info.answer);
  PutRaw<std::uint64_t>(body, info.n);
  PutRaw<std::uint64_t>(body, info.d);
  PutRaw<std::uint64_t>(body, info.summary_bits);
}

bool EncodeRefreshRequest(std::string_view sketch, std::string* body) {
  if (sketch.size() > 0xffff) return false;
  PutString(body, sketch);
  return true;
}

bool EncodeSubscribeRequest(const SubscribeRequest& request,
                            std::string* body) {
  if (request.sketch.size() > 0xffff) return false;
  if (request.timeout_ms > kMaxSubscribeTimeoutMs) return false;
  PutString(body, request.sketch);
  PutRaw<std::uint64_t>(body, request.min_epoch);
  PutRaw<std::uint32_t>(body, request.timeout_ms);
  return true;
}

void EncodeSnapshotReply(const SnapshotInfo& info, std::string* body) {
  PutRaw<std::uint64_t>(body, info.epoch);
  PutRaw<std::uint64_t>(body, info.rows_seen);
}

bool EncodeHealthReply(const std::vector<PodHealthInfo>& pods,
                       std::string* body) {
  if (pods.size() > kMaxPodsPerReply) return false;
  PutRaw<std::uint32_t>(body, static_cast<std::uint32_t>(pods.size()));
  for (const PodHealthInfo& pod : pods) {
    PutRaw<std::uint8_t>(body, pod.health);
    PutRaw<std::uint32_t>(body, pod.consecutive_failures);
    PutRaw<std::uint64_t>(body, pod.inflight);
    PutRaw<std::uint64_t>(body, pod.resident_bytes);
  }
  return true;
}

bool EncodeStatsReply(const StatsReply& reply, std::string* body) {
  if (reply.counters.size() > kMaxMetricsPerReply ||
      reply.gauges.size() > kMaxMetricsPerReply ||
      reply.histograms.size() > kMaxMetricsPerReply) {
    return false;
  }
  PutRaw<std::uint32_t>(body,
                        static_cast<std::uint32_t>(reply.counters.size()));
  for (const StatsCounter& c : reply.counters) {
    if (c.name.size() > 0xffff) return false;
    PutString(body, c.name);
    PutRaw<std::uint64_t>(body, c.value);
  }
  PutRaw<std::uint32_t>(body,
                        static_cast<std::uint32_t>(reply.gauges.size()));
  for (const StatsGauge& g : reply.gauges) {
    if (g.name.size() > 0xffff) return false;
    PutString(body, g.name);
    PutRaw<std::int64_t>(body, g.value);
  }
  PutRaw<std::uint32_t>(body,
                        static_cast<std::uint32_t>(reply.histograms.size()));
  for (const StatsHistogram& h : reply.histograms) {
    if (h.name.size() > 0xffff) return false;
    if (h.buckets.size() > kMaxHistogramBuckets) return false;
    PutString(body, h.name);
    PutRaw<std::uint64_t>(body, h.count);
    PutRaw<std::uint64_t>(body, h.sum);
    PutRaw<std::uint64_t>(body, h.max);
    PutRaw<std::uint32_t>(body,
                          static_cast<std::uint32_t>(h.buckets.size()));
    for (std::uint64_t b : h.buckets) PutRaw<std::uint64_t>(body, b);
  }
  return true;
}

void EncodeError(Status status, std::string_view message, std::string* out) {
  std::string body;
  EncodeErrorBody(message, &body);
  EncodeFrame(Opcode::kError, static_cast<std::uint8_t>(status), body, out);
}

void EncodeErrorBody(std::string_view message, std::string* body) {
  // Error messages are diagnostic, not data: truncate rather than fail.
  if (message.size() > 0xffff) message = message.substr(0, 0xffff);
  PutString(body, message);
}

std::optional<FrameHeader> DecodeFrameHeader(const char* data,
                                             std::size_t size) {
  if (size != kFrameHeaderBytes) return std::nullopt;
  if (std::memcmp(data, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return std::nullopt;
  }
  std::uint16_t version = 0;
  std::memcpy(&version, data + 4, sizeof(version));
  if (version != kProtocolVersion) return std::nullopt;
  const std::uint8_t opcode = static_cast<std::uint8_t>(data[6]);
  if (!KnownOpcode(opcode)) return std::nullopt;
  FrameHeader header;
  header.opcode = static_cast<Opcode>(opcode);
  header.status = static_cast<std::uint8_t>(data[7]);
  std::memcpy(&header.body_length, data + 8, sizeof(header.body_length));
  if (header.body_length > kMaxBodyBytes) return std::nullopt;
  return header;
}

std::optional<QueryBatchRequest> DecodeQueryBatch(std::string_view body) {
  Reader in(body);
  QueryBatchRequest request;
  std::uint32_t count = 0;
  if (!in.GetString(request.sketch) || !in.Get(count)) return std::nullopt;
  if (count > kMaxQueriesPerRequest) return std::nullopt;
  // Bound the declared count by the bytes actually present (every query
  // costs at least its u16 attribute count) before sizing anything from
  // it -- a tiny frame must not provoke a megabyte reserve.
  if (count > in.Remaining() / 2) return std::nullopt;
  // One pass copies each query's ids into the batch, which stores them
  // as its attribute set. The bytes after the counts bound the ids --
  // exactly, for a well-formed body -- so the batch is sized once. A
  // query that is cut short or would overrun that bound stops the copy,
  // and the batch is dropped; so are bytes left over after the last
  // query.
  const char* next = in.Take(0);
  const char* const end = body.data() + body.size();
  std::size_t ids_left = (in.Remaining() - 2 * std::size_t{count}) / 4;
  bool malformed = false;
  request.batch = core::QueryBatch(core::QueryBatch::kAnyUniverse);
  request.batch.Append(count, ids_left, [&](std::uint32_t* dst) {
    std::uint16_t attrs = 0;
    if (malformed || end - next < 2) {
      malformed = true;
      return std::size_t{0};
    }
    std::memcpy(&attrs, next, 2);
    if (attrs > ids_left ||
        static_cast<std::size_t>(end - next - 2) < 4 * std::size_t{attrs}) {
      malformed = true;
      return std::size_t{0};
    }
    next += 2;
    for (std::uint16_t a = 0; a < attrs; ++a, next += 4) {
      std::memcpy(dst + a, next, 4);
    }
    ids_left -= attrs;
    return std::size_t{attrs};
  });
  if (malformed || next != end) return std::nullopt;
  return request;
}

std::optional<std::vector<double>> DecodeEstimateReply(
    std::string_view body) {
  Reader in(body);
  std::uint32_t count = 0;
  if (!in.Get(count) || count > kMaxQueriesPerRequest) return std::nullopt;
  // The body is exactly `count` raw doubles; check before allocating.
  const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(double);
  if (in.Remaining() != bytes) return std::nullopt;
  std::vector<double> answers(count);
  if (count != 0) std::memcpy(answers.data(), in.Take(bytes), bytes);
  return answers;
}

std::optional<std::vector<bool>> DecodeAreFrequentReply(
    std::string_view body) {
  Reader in(body);
  std::uint32_t count = 0;
  if (!in.Get(count) || count > kMaxQueriesPerRequest) return std::nullopt;
  // The body is exactly the packed bit bytes; check before allocating.
  const std::size_t bytes = (static_cast<std::size_t>(count) + 7) / 8;
  if (in.Remaining() != bytes) return std::nullopt;
  const char* packed = in.Take(bytes);
  // Bits past the last answer must be clear, or two bodies would decode
  // to the same answers.
  if (count % 8 != 0 &&
      (static_cast<std::uint8_t>(packed[bytes - 1]) >> (count % 8)) != 0) {
    return std::nullopt;
  }
  std::vector<bool> answers(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    answers[i] = (static_cast<std::uint8_t>(packed[i / 8]) >> (i % 8)) & 1;
  }
  return answers;
}

std::optional<std::string> DecodeInfoRequest(std::string_view body) {
  Reader in(body);
  std::string sketch;
  if (!in.GetString(sketch) || !in.Done()) return std::nullopt;
  return sketch;
}

std::optional<SketchInfo> DecodeInfoReply(std::string_view body) {
  Reader in(body);
  SketchInfo info;
  if (!in.GetString(info.algorithm) || !in.Get(info.k) ||
      !in.Get(info.eps) || !in.Get(info.delta) || !in.Get(info.scope) ||
      !in.Get(info.answer) || !in.Get(info.n) || !in.Get(info.d) ||
      !in.Get(info.summary_bits) || !in.Done()) {
    return std::nullopt;
  }
  // Enum bytes must name a real enumerator (same rule as ReadSketch).
  if (info.scope > 1 || info.answer > 1) return std::nullopt;
  return info;
}

std::optional<std::string> DecodeRefreshRequest(std::string_view body) {
  Reader in(body);
  std::string sketch;
  if (!in.GetString(sketch) || !in.Done()) return std::nullopt;
  return sketch;
}

std::optional<SubscribeRequest> DecodeSubscribeRequest(std::string_view body) {
  Reader in(body);
  SubscribeRequest request;
  if (!in.GetString(request.sketch) || !in.Get(request.min_epoch) ||
      !in.Get(request.timeout_ms) || !in.Done()) {
    return std::nullopt;
  }
  // An oversize timeout would park a server connection thread; reject it
  // at the codec like every other limit.
  if (request.timeout_ms > kMaxSubscribeTimeoutMs) return std::nullopt;
  return request;
}

std::optional<SnapshotInfo> DecodeSnapshotReply(std::string_view body) {
  Reader in(body);
  SnapshotInfo info;
  if (!in.Get(info.epoch) || !in.Get(info.rows_seen) || !in.Done()) {
    return std::nullopt;
  }
  return info;
}

std::optional<std::vector<PodHealthInfo>> DecodeHealthReply(
    std::string_view body) {
  Reader in(body);
  std::uint32_t count = 0;
  if (!in.Get(count) || count > kMaxPodsPerReply) return std::nullopt;
  // Each row is exactly 21 bytes; bound the declared count by the bytes
  // actually present before allocating anything from it.
  constexpr std::size_t kRowBytes = 1 + 4 + 8 + 8;
  if (in.Remaining() != static_cast<std::size_t>(count) * kRowBytes) {
    return std::nullopt;
  }
  std::vector<PodHealthInfo> pods(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    PodHealthInfo& pod = pods[i];
    if (!in.Get(pod.health) || !in.Get(pod.consecutive_failures) ||
        !in.Get(pod.inflight) || !in.Get(pod.resident_bytes)) {
      return std::nullopt;
    }
    // The health byte must name a real state (same rule as ReadSketch).
    if (pod.health > 2) return std::nullopt;
  }
  if (!in.Done()) return std::nullopt;
  return pods;
}

std::optional<StatsReply> DecodeStatsReply(std::string_view body) {
  Reader in(body);
  StatsReply reply;
  std::uint32_t count = 0;

  // Counters: each row costs at least its u16 name length + u64 value;
  // bound every declared count by the bytes actually present before
  // sizing anything from it (the DecodeQueryBatch discipline).
  if (!in.Get(count) || count > kMaxMetricsPerReply) return std::nullopt;
  if (count > in.Remaining() / (2 + 8)) return std::nullopt;
  reply.counters.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    StatsCounter c;
    if (!in.GetString(c.name) || !in.Get(c.value)) return std::nullopt;
    reply.counters.push_back(std::move(c));
  }

  if (!in.Get(count) || count > kMaxMetricsPerReply) return std::nullopt;
  if (count > in.Remaining() / (2 + 8)) return std::nullopt;
  reply.gauges.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    StatsGauge g;
    if (!in.GetString(g.name) || !in.Get(g.value)) return std::nullopt;
    reply.gauges.push_back(std::move(g));
  }

  // Histograms: minimum row is name length u16 + count/sum/max u64 +
  // bucket_count u32.
  if (!in.Get(count) || count > kMaxMetricsPerReply) return std::nullopt;
  if (count > in.Remaining() / (2 + 3 * 8 + 4)) return std::nullopt;
  reply.histograms.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    StatsHistogram h;
    std::uint32_t buckets = 0;
    if (!in.GetString(h.name) || !in.Get(h.count) || !in.Get(h.sum) ||
        !in.Get(h.max) || !in.Get(buckets)) {
      return std::nullopt;
    }
    if (buckets > kMaxHistogramBuckets) return std::nullopt;
    if (in.Remaining() < static_cast<std::size_t>(buckets) * 8) {
      return std::nullopt;
    }
    h.buckets.resize(buckets);
    for (std::uint32_t b = 0; b < buckets; ++b) {
      if (!in.Get(h.buckets[b])) return std::nullopt;
    }
    reply.histograms.push_back(std::move(h));
  }
  if (!in.Done()) return std::nullopt;
  return reply;
}

std::optional<std::string> DecodeErrorMessage(std::string_view body) {
  Reader in(body);
  std::string message;
  if (!in.GetString(message) || !in.Done()) return std::nullopt;
  return message;
}

FrameDecoder::Step FrameDecoder::Consume(const char* data, std::size_t size,
                                         std::size_t* consumed) {
  *consumed = 0;
  while (true) {
    switch (state_) {
      case State::kMalformed:
        return Step::kMalformed;
      case State::kHeader: {
        const std::size_t take =
            std::min(size - *consumed, kFrameHeaderBytes - have_);
        std::memcpy(header_ + have_, data + *consumed, take);
        have_ += take;
        *consumed += take;
        if (have_ < kFrameHeaderBytes) return Step::kNeedMore;
        std::optional<FrameHeader> header =
            DecodeFrameHeader(header_, kFrameHeaderBytes);
        if (!header) {
          state_ = State::kMalformed;
          return Step::kMalformed;
        }
        // The length field was validated against kMaxBodyBytes above, so
        // this resize is bounded.
        frame_.header = *header;
        frame_.body.resize(header->body_length);
        have_ = 0;
        state_ = State::kBody;
        break;
      }
      case State::kBody: {
        const std::size_t take =
            std::min(size - *consumed, frame_.body.size() - have_);
        std::memcpy(frame_.body.data() + have_, data + *consumed, take);
        have_ += take;
        *consumed += take;
        if (have_ < frame_.body.size()) return Step::kNeedMore;
        have_ = 0;
        state_ = State::kHeader;
        return Step::kFrame;
      }
    }
  }
}

}  // namespace ifsketch::serve
