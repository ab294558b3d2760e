#include "serve/reactor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "serve/server.h"

namespace ifsketch::serve {
namespace {

/// Per-recv buffer and per-wakeup read budget: a single chatty
/// connection yields the loop after this much input (level-triggered
/// epoll re-reports whatever it left behind).
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kReadBudget = 256 * 1024;
/// iovec spans per writev call (well under IOV_MAX everywhere).
constexpr int kMaxIov = 64;

using Clock = std::chrono::steady_clock;

}  // namespace

struct ReactorServer::Impl {
  /// One reply slot, created at frame arrival in request order and
  /// filled there -- or, for a parked SUBSCRIBE, when the loop answers
  /// it. The loop writes the done prefix of the deque. Slots are only
  /// popped after being fully written, and deque push/pop at the ends
  /// never moves other elements, so a parked slot's pointer stays valid
  /// until it is answered.
  struct PendingReply {
    bool done = false;
    char header[kFrameHeaderBytes];
    std::string body;
  };

  /// One client connection; only its loop thread touches it.
  struct Conn {
    int fd = -1;
    FrameDecoder decoder;
    std::deque<PendingReply> pending;
    std::size_t outbound_bytes = 0;  // done-but-unwritten reply bytes
    std::size_t write_off = 0;       // bytes of pending.front() written
    std::uint32_t interest = EPOLLIN;  // epoll events armed
    bool paused = false;             // EPOLLIN dropped (backpressure)
    bool read_done = false;          // EOF or malformed: no more requests
    bool overflow = false;           // outbound hard cap tripped
    bool dead = false;               // fd closed, detached from its loop
  };

  /// A SUBSCRIBE waiting in `slot` of `conn`'s reply queue.
  struct Parked {
    std::shared_ptr<Conn> conn;
    PendingReply* slot = nullptr;
    ParkedSubscribe subscribe;
  };

  struct Loop {
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;
    // Loop-thread-only state.
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
    // A connection closed mid-batch may still have stale events in the
    // current epoll_wait result; the graveyard keeps the object alive
    // through the batch and the set marks it skippable.
    std::vector<std::shared_ptr<Conn>> graveyard;
    std::unordered_set<Conn*> closed_in_batch;
    // Parked SUBSCRIBEs of live connections, swept when the eventfd
    // fires (a publish) and when next_deadline, the earliest of their
    // deadlines, passes.
    std::vector<Parked> parked;
    Clock::time_point next_deadline = Clock::time_point::max();
    // Accepted sockets from loop 0, drained on eventfd wakeups.
    std::mutex inbox_mu;
    std::vector<std::shared_ptr<Conn>> incoming;

    obs::Gauge* g_conns = nullptr;
    obs::Gauge* g_outbound = nullptr;
    obs::Counter* c_wakeups = nullptr;
  };

  Router& router;
  ReactorOptions options;

  int listen_fd = -1;
  std::uint16_t port = 0;
  std::vector<std::unique_ptr<Loop>> loops;
  std::size_t next_loop = 0;  // loop 0 (the accepting loop) only

  std::atomic<bool> stop_accepting{false};
  std::atomic<bool> stopping{false};
  std::atomic<std::size_t> open_conns{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  obs::Counter* c_rejected = nullptr;
  obs::Counter* c_hangups = nullptr;

  std::mutex drain_mu;
  std::condition_variable drain_cv;

  Impl(Router& r, ReactorOptions o) : router(r), options(o) {
    if (options.loop_threads == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      options.loop_threads = hw == 0 ? 1 : hw;
    }
    options.loop_threads += options.dispatch_threads;
  }

  ~Impl() { Shutdown(); }

  // ------------------------------------------------------------- setup

  bool Listen(std::uint16_t want_port) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listen_fd < 0) return false;
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(want_port);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listen_fd, 1024) != 0) {
      ::close(listen_fd);
      listen_fd = -1;
      return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
        0) {
      ::close(listen_fd);
      listen_fd = -1;
      return false;
    }
    port = ntohs(addr.sin_port);

    obs::MetricsRegistry& registry = router.registry();
    c_rejected = registry.GetCounter("serve_conns_rejected_total");
    c_hangups = registry.GetCounter("serve_backpressure_hangups_total");

    loops.reserve(options.loop_threads);
    for (std::size_t i = 0; i < options.loop_threads; ++i) {
      auto loop = std::make_unique<Loop>();
      loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      loop->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (loop->epoll_fd < 0 || loop->event_fd < 0) return false;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = nullptr;  // nullptr tags the eventfd
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &ev);
      const std::string idx = std::to_string(i);
      loop->g_conns = registry.GetGauge(
          obs::LabeledName("serve_loop_connections", "loop", idx));
      loop->g_outbound = registry.GetGauge(
          obs::LabeledName("serve_loop_outbound_bytes", "loop", idx));
      loop->c_wakeups = registry.GetCounter(
          obs::LabeledName("serve_loop_wakeups_total", "loop", idx));
      loops.push_back(std::move(loop));
    }
    {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = this;  // `this` tags the listener (loop 0 only)
      ::epoll_ctl(loops[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev);
    }
    for (std::size_t i = 0; i < loops.size(); ++i) {
      loops[i]->thread = std::thread([this, i] { LoopMain(i); });
    }
    // Publishes wake every loop; the hook runs on the publishing thread
    // and only writes eventfds. `loops` is fixed from here until
    // Shutdown removes the hooks.
    for (const auto& pod : router.pods()) {
      pod->SetPublishHook([this] {
        for (const auto& loop : loops) Wake(*loop);
      });
    }
    return true;
  }

  void Shutdown() {
    if (loops.empty()) {
      if (listen_fd >= 0) ::close(listen_fd);
      listen_fd = -1;
      return;
    }
    // Once removed, no publish is still writing to the eventfds closed
    // below (the pod calls its hook under its own lock).
    for (const auto& pod : router.pods()) pod->SetPublishHook(nullptr);
    StopAccepting();
    stopping.store(true, std::memory_order_release);
    for (auto& loop : loops) Wake(*loop);
    for (auto& loop : loops) {
      if (loop->thread.joinable()) loop->thread.join();
    }
    for (auto& loop : loops) {
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
      if (loop->event_fd >= 0) ::close(loop->event_fd);
    }
    loops.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    listen_fd = -1;
  }

  void StopAccepting() {
    if (stop_accepting.exchange(true)) return;
    // shutdown(2) (not close) so loop 0's registration stays valid; the
    // loop sees EPOLLIN/HUP, accept fails, and it deregisters itself.
    if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
    NotifyDrain();  // an empty-but-stopped server must release WaitDrained
  }

  void NotifyDrain() {
    { std::lock_guard<std::mutex> lock(drain_mu); }
    drain_cv.notify_all();
  }

  void WaitDrained() {
    std::unique_lock<std::mutex> lock(drain_mu);
    drain_cv.wait(lock, [this] {
      return stop_accepting.load() &&
             open_conns.load(std::memory_order_acquire) == 0;
    });
  }

  void Wake(Loop& loop) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(loop.event_fd, &one, sizeof(one));
  }

  // ------------------------------------------------------- event loops

  void LoopMain(std::size_t index) {
    Loop& loop = *loops[index];
    epoll_event events[128];
    for (;;) {
      const int n =
          ::epoll_wait(loop.epoll_fd, events, 128, WaitTimeoutMs(loop));
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      loop.c_wakeups->Add();
      bool notified = false;
      for (int i = 0; i < n; ++i) {
        void* tag = events[i].data.ptr;
        if (tag == nullptr) {
          std::uint64_t drained = 0;
          [[maybe_unused]] ssize_t r =
              ::read(loop.event_fd, &drained, sizeof(drained));
          notified = true;
        } else if (tag == this) {
          AcceptReady();
        } else {
          Conn* raw = static_cast<Conn*>(tag);
          if (loop.closed_in_batch.count(raw) != 0) continue;
          auto it = loop.conns.find(raw->fd);
          if (it == loop.conns.end() || it->second.get() != raw) continue;
          std::shared_ptr<Conn> conn = it->second;
          if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
            HandleReadable(loop, conn);
          }
          if (loop.closed_in_batch.count(raw) == 0 &&
              (events[i].events & EPOLLOUT)) {
            TryFlush(loop, conn);
          }
        }
      }
      ProcessInbox(loop);
      if (!loop.parked.empty() &&
          (notified || Clock::now() >= loop.next_deadline)) {
        SweepParked(loop);
      }
      if (stopping.load(std::memory_order_acquire)) {
        loop.parked.clear();
        std::vector<std::shared_ptr<Conn>> all;
        all.reserve(loop.conns.size());
        for (auto& [fd, conn] : loop.conns) all.push_back(conn);
        for (auto& conn : all) CloseConn(loop, conn);
        return;
      }
      loop.graveyard.clear();
      loop.closed_in_batch.clear();
    }
  }

  /// epoll_wait's timeout: none while nothing is parked, else up to the
  /// earliest parked deadline, rounded up to whole milliseconds so the
  /// loop never wakes before it and spins.
  static int WaitTimeoutMs(const Loop& loop) {
    if (loop.parked.empty()) return -1;
    const Clock::duration left = loop.next_deadline - Clock::now();
    if (left <= Clock::duration::zero()) return 0;
    return static_cast<int>(
        std::chrono::ceil<std::chrono::milliseconds>(left).count());
  }

  void ProcessInbox(Loop& loop) {
    std::vector<std::shared_ptr<Conn>> incoming;
    {
      std::lock_guard<std::mutex> lock(loop.inbox_mu);
      incoming.swap(loop.incoming);
    }
    for (auto& conn : incoming) {
      if (stopping.load(std::memory_order_acquire)) {
        DropUnregistered(conn);
        continue;
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = conn.get();
      const int fd = conn->fd;
      if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        DropUnregistered(conn);
        continue;
      }
      loop.g_conns->Add(1);
      loop.conns.emplace(fd, std::move(conn));
    }
  }

  /// An accepted connection that never reached its loop's epoll set.
  void DropUnregistered(const std::shared_ptr<Conn>& conn) {
    ::close(conn->fd);
    open_conns.fetch_sub(1, std::memory_order_acq_rel);
    NotifyDrain();
  }

  void AcceptReady() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        // EAGAIN: drained. Anything else (EMFILE, or the shutdown(2)
        // from StopAccepting): stop for now; level-triggered epoll
        // retries if the condition persists.
        return;
      }
      if (stop_accepting.load(std::memory_order_acquire)) {
        ::close(fd);
        continue;
      }
      if (options.max_connections != 0 &&
          open_conns.load(std::memory_order_acquire) >=
              options.max_connections) {
        // Reject-at-accept: the peer sees an immediate EOF, standing
        // connections and the accept loop are unaffected.
        ::close(fd);
        rejected.fetch_add(1, std::memory_order_relaxed);
        c_rejected->Add();
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      open_conns.fetch_add(1, std::memory_order_acq_rel);
      accepted.fetch_add(1, std::memory_order_relaxed);
      Loop& target = *loops[next_loop++ % loops.size()];
      {
        std::lock_guard<std::mutex> lock(target.inbox_mu);
        target.incoming.push_back(std::move(conn));
      }
      Wake(target);
    }
  }

  /// Reads what the socket holds (up to the budget), answers every
  /// complete frame on this thread, then flushes the burst's replies.
  void HandleReadable(Loop& loop, const std::shared_ptr<Conn>& conn) {
    char buf[kReadChunk];
    std::size_t total = 0;
    for (;;) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        CloseConn(loop, conn);
        return;
      }
      if (n == 0) {
        OnReadEof(loop, conn);
        return;
      }
      std::size_t off = 0;
      bool malformed = false;
      while (off < static_cast<std::size_t>(n) && !conn->overflow) {
        std::size_t used = 0;
        const FrameDecoder::Step step = conn->decoder.Consume(
            buf + off, static_cast<std::size_t>(n) - off, &used);
        off += used;
        if (step == FrameDecoder::Step::kNeedMore) break;
        if (step == FrameDecoder::Step::kMalformed) {
          malformed = true;
          break;
        }
        Dispatch(loop, conn, conn->decoder.take());
      }
      if (malformed) {
        // The protocol.h contract: answer what was already read (the
        // slots ahead in the deque), then one kError, then close. Bytes
        // after the malformed frame are never interpreted.
        FailConnRead(loop, conn, "malformed frame");
        return;
      }
      if (conn->overflow) break;  // TryFlush hangs up
      if (conn->pending.size() >= options.max_outstanding ||
          conn->outbound_bytes >= options.pause_outbound_bytes) {
        conn->paused = true;
        break;
      }
      total += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;  // drained
      if (total >= kReadBudget) break;  // yield; epoll re-reports
    }
    TryFlush(loop, conn);
  }

  /// Answers one request frame into a new slot at the back of the
  /// connection's queue, or parks it there (an unsatisfied SUBSCRIBE).
  void Dispatch(Loop& loop, const std::shared_ptr<Conn>& conn, Frame frame) {
    PendingReply& slot = conn->pending.emplace_back();
    ReplyFrame reply =
        DispatchRequest(router, frame.header.opcode, frame.body);
    if (reply.parked.has_value()) {
      loop.next_deadline = std::min(loop.next_deadline, reply.parked->deadline);
      loop.parked.push_back(Parked{conn, &slot, std::move(*reply.parked)});
      return;
    }
    FillSlot(loop, *conn, slot, std::move(reply));
  }

  /// Answers every parked SUBSCRIBE whose epoch or deadline has come
  /// and recomputes next_deadline over the rest.
  void SweepParked(Loop& loop) {
    const Clock::time_point now = Clock::now();
    std::vector<std::shared_ptr<Conn>> answered;
    loop.next_deadline = Clock::time_point::max();
    std::size_t kept = 0;
    for (Parked& p : loop.parked) {
      std::optional<ReplyFrame> reply =
          AnswerSubscribe(router, p.subscribe, now);
      if (reply.has_value()) {
        FillSlot(loop, *p.conn, *p.slot, std::move(*reply));
        answered.push_back(std::move(p.conn));
        continue;
      }
      loop.next_deadline = std::min(loop.next_deadline, p.subscribe.deadline);
      if (&loop.parked[kept] != &p) loop.parked[kept] = std::move(p);
      ++kept;
    }
    loop.parked.resize(kept);
    for (const auto& conn : answered) TryFlush(loop, conn);
  }

  /// Completes `slot` with `reply`'s frame and counts its bytes against
  /// the connection's outbound bounds.
  void FillSlot(Loop& loop, Conn& conn, PendingReply& slot, ReplyFrame reply) {
    slot.body = std::move(reply.body);
    if (!EncodeFrameHeader(reply.opcode, reply.status,
                           static_cast<std::uint32_t>(slot.body.size()),
                           slot.header)) {
      // A reply body over kMaxBodyBytes cannot be framed (possible only
      // for a pathological stats snapshot); degrade to an error reply
      // rather than emit an unparseable frame.
      slot.body.clear();
      EncodeErrorBody("reply exceeds frame limit", &slot.body);
      EncodeFrameHeader(Opcode::kError,
                        static_cast<std::uint8_t>(Status::kInternal),
                        static_cast<std::uint32_t>(slot.body.size()),
                        slot.header);
    }
    slot.done = true;
    const std::size_t size = kFrameHeaderBytes + slot.body.size();
    conn.outbound_bytes += size;
    loop.g_outbound->Add(static_cast<std::int64_t>(size));
    if (options.max_outbound_bytes != 0 &&
        conn.outbound_bytes > options.max_outbound_bytes) {
      conn.overflow = true;
    }
  }

  void OnReadEof(Loop& loop, const std::shared_ptr<Conn>& conn) {
    if (conn->decoder.mid_frame()) {
      // Died mid-frame: framing is lost, so answer with one kError
      // before hanging up (best effort, the peer may only have
      // half-closed and still be reading).
      FailConnRead(loop, conn, "malformed frame");
      return;
    }
    // Clean half-close: no more requests, but every already-read frame
    // (parked SUBSCRIBEs too) still gets its reply before the connection
    // closes.
    conn->read_done = true;
    TryFlush(loop, conn);
  }

  /// Stops reading and queues the terminal kError reply behind whatever
  /// requests are already pending.
  void FailConnRead(Loop& loop, const std::shared_ptr<Conn>& conn,
                    std::string_view message) {
    conn->read_done = true;
    ReplyFrame error;
    error.status = static_cast<std::uint8_t>(Status::kBadRequest);
    EncodeErrorBody(message, &error.body);
    FillSlot(loop, *conn, conn->pending.emplace_back(), std::move(error));
    TryFlush(loop, conn);
  }

  /// Writes the completed prefix of the reply deque with sendmsg,
  /// advancing the partial-write cursor, and re-arms the connection's
  /// epoll interest; closes the connection when the hard outbound cap
  /// tripped, the peer died, or a drained half-closed connection has
  /// nothing left to say.
  void TryFlush(Loop& loop, const std::shared_ptr<Conn>& conn) {
    if (conn->dead) return;
    if (conn->overflow) {
      c_hangups->Add();
      CloseConn(loop, conn);
      return;
    }
    bool blocked = false;
    for (;;) {
      iovec iov[kMaxIov];
      int cnt = 0;
      std::size_t off = conn->write_off;
      for (const PendingReply& slot : conn->pending) {
        if (!slot.done || cnt + 2 > kMaxIov) break;
        if (off < kFrameHeaderBytes) {
          iov[cnt].iov_base = const_cast<char*>(slot.header) + off;
          iov[cnt].iov_len = kFrameHeaderBytes - off;
          ++cnt;
          off = kFrameHeaderBytes;
        }
        const std::size_t body_off = off - kFrameHeaderBytes;
        if (body_off < slot.body.size()) {
          iov[cnt].iov_base = const_cast<char*>(slot.body.data()) + body_off;
          iov[cnt].iov_len = slot.body.size() - body_off;
          ++cnt;
        }
        off = 0;
      }
      if (cnt == 0) break;
      std::size_t built = 0;
      for (int i = 0; i < cnt; ++i) built += iov[i].iov_len;
      // sendmsg with MSG_NOSIGNAL: a client that disconnected with
      // replies pending must surface as EPIPE here, not SIGPIPE the
      // whole process.
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(cnt);
      const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          blocked = true;
          break;
        }
        CloseConn(loop, conn);  // the peer is gone
        return;
      }
      std::size_t advanced = static_cast<std::size_t>(n);
      conn->outbound_bytes -= advanced;
      loop.g_outbound->Add(-static_cast<std::int64_t>(advanced));
      while (advanced > 0) {
        PendingReply& front = conn->pending.front();
        const std::size_t remaining =
            kFrameHeaderBytes + front.body.size() - conn->write_off;
        if (advanced >= remaining) {
          advanced -= remaining;
          conn->write_off = 0;
          conn->pending.pop_front();
        } else {
          conn->write_off += advanced;
          advanced = 0;
        }
      }
      if (static_cast<std::size_t>(n) < built) {
        blocked = true;
        break;
      }
    }
    if (conn->paused && conn->pending.size() < options.max_outstanding &&
        conn->outbound_bytes < options.pause_outbound_bytes) {
      conn->paused = false;
    }
    if (conn->read_done && conn->pending.empty()) {
      CloseConn(loop, conn);
      return;
    }
    // One epoll_ctl only when the interest changes, not per request.
    std::uint32_t interest = 0;
    if (!conn->read_done && !conn->paused) interest |= EPOLLIN;
    if (blocked) interest |= EPOLLOUT;
    if (interest != conn->interest) {
      conn->interest = interest;
      epoll_event ev{};
      ev.events = interest;
      ev.data.ptr = conn.get();
      ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
    }
  }

  /// Detaches the connection from its loop, drops its parked
  /// SUBSCRIBEs and closes the fd. Safe to call once per connection
  /// (later stale events in the same batch are screened by
  /// closed_in_batch).
  void CloseConn(Loop& loop, const std::shared_ptr<Conn>& conn) {
    if (conn->dead) return;
    conn->dead = true;
    if (!loop.parked.empty()) {
      std::erase_if(loop.parked,
                    [&conn](const Parked& p) { return p.conn == conn; });
    }
    if (conn->outbound_bytes != 0) {
      loop.g_outbound->Add(-static_cast<std::int64_t>(conn->outbound_bytes));
      conn->outbound_bytes = 0;
    }
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    loop.conns.erase(conn->fd);
    loop.closed_in_batch.insert(conn.get());
    loop.graveyard.push_back(conn);
    loop.g_conns->Add(-1);
    open_conns.fetch_sub(1, std::memory_order_acq_rel);
    NotifyDrain();
  }
};

ReactorServer::ReactorServer(Router& router, ReactorOptions options)
    : impl_(std::make_unique<Impl>(router, options)) {}

ReactorServer::~ReactorServer() = default;

bool ReactorServer::Listen(std::uint16_t port) { return impl_->Listen(port); }

std::uint16_t ReactorServer::port() const { return impl_->port; }

void ReactorServer::StopAccepting() { impl_->StopAccepting(); }

void ReactorServer::WaitDrained() { impl_->WaitDrained(); }

std::size_t ReactorServer::open_connections() const {
  return impl_->open_conns.load(std::memory_order_acquire);
}

std::uint64_t ReactorServer::accepted_total() const {
  return impl_->accepted.load(std::memory_order_relaxed);
}

std::uint64_t ReactorServer::rejected_total() const {
  return impl_->rejected.load(std::memory_order_relaxed);
}

}  // namespace ifsketch::serve
