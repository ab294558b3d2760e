// Event-loop serving: the epoll reactor, the one server loop over the
// Router.
//
// The reactor serves the protocol with a fixed thread budget: N
// event-loop threads multiplex all connections through epoll, so ten
// thousand idle connections cost ten thousand fds and nothing else --
// where a thread and a stack per connection would top out at a few
// thousand clients. The server binary, the tests and the benches all
// serve through it. Layout:
//
//   - Loop threads (default: hardware concurrency, `--loop-threads` in
//     the binary). Each owns an epoll instance, an eventfd for
//     cross-thread wakeups, and the connections assigned to it
//     round-robin at accept. A connection is loop-thread-only state;
//     only the accepted sockets cross threads, through the loop's
//     inbox + eventfd. Loop 0 additionally owns the non-blocking
//     listener.
//   - Run to completion: a loop runs DispatchRequest -- acquire,
//     routing, kernels -- on each frame it decodes and sends the read
//     burst's replies with one sendmsg, so a request costs one wakeup.
//     Kernel fan-out inside a request still runs on util::ThreadPool
//     with the loop participating; frames pipelined on one connection
//     run one after another, and a big batch delays the other
//     connections of its loop.
//   - SUBSCRIBE parks as an event, never as a blocked thread: its reply
//     slot stays queued until AnswerSubscribe (serve/server.h) can fill
//     it. Publishes wake the loops through the pods' publish hook,
//     installed at Listen and removed at shutdown (so a router is served
//     by one reactor at a time), and the earliest parked deadline
//     bounds epoll_wait.
//
// Pipelining (the protocol.h contract): each connection keeps an ordered
// deque of reply slots, one per request frame in arrival order. The loop
// only ever writes the completed prefix of the deque, so replies hit the
// wire strictly in request order, also behind a parked SUBSCRIBE.
// Completed replies go out with sendmsg, headers and bodies as separate
// spans straight from the slots: batched answers are never copied into a
// staging buffer.
//
// Backpressure, two bounds per connection (ReactorOptions):
//   - max_outstanding / pause_outbound_bytes: the loop stops reading
//     (drops EPOLLIN) while a connection has that many unanswered
//     frames or that many queued reply bytes, resuming as the queue
//     drains. A client that reads its replies never notices.
//   - max_outbound_bytes: a client that stops reading replies while
//     still posting requests gets its connection closed once the queued
//     replies cross this hard cap (serve_backpressure_hangups_total) --
//     bounded server memory, clean hangup, loop thread unaffected.
//
// max_connections is enforced at accept: beyond the cap, accept then
// immediately close, count serve_conns_rejected_total, and keep looping
// -- the listener never blocks and standing connections are unaffected.
//
// Observability (all in the router's registry): per-loop gauges
// serve_loop_connections{loop=} and serve_loop_outbound_bytes{loop=},
// per-loop counter serve_loop_wakeups_total{loop=}, plus the counters
// above. Request metrics and traces come from DispatchRequest
// (serve/server.h).
#ifndef IFSKETCH_SERVE_REACTOR_H_
#define IFSKETCH_SERVE_REACTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "serve/router.h"

namespace ifsketch::serve {

struct ReactorOptions {
  /// Event-loop threads; 0 = hardware concurrency.
  std::size_t loop_threads = 0;
  /// Added to loop_threads: there is no dispatch pool any more, and
  /// callers that sized one keep their thread budget as event loops.
  std::size_t dispatch_threads = 0;
  /// Concurrent-connection cap, enforced by reject-at-accept; 0 = no cap.
  std::size_t max_connections = 0;
  /// Unanswered frames per connection before the loop pauses reads.
  std::size_t max_outstanding = 128;
  /// Queued reply bytes per connection before the loop pauses reads.
  std::size_t pause_outbound_bytes = 4u << 20;
  /// Queued reply bytes per connection before the server hangs up; must
  /// exceed the largest reply a deployment emits (any value >=
  /// kMaxBodyBytes + header is safe). 0 = no cap.
  std::size_t max_outbound_bytes = 64u << 20;
};

/// The reactor server. Listen() binds and starts the threads; the
/// destructor force-closes everything. For a graceful shutdown call
/// StopAccepting() (e.g. from a signal thread) and then WaitDrained()
/// before destruction: standing connections are served until their
/// clients close.
class ReactorServer {
 public:
  explicit ReactorServer(Router& router, ReactorOptions options = {});
  ~ReactorServer();
  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port; see port()),
  /// installs the router's publish hooks and starts the loop threads.
  /// False on bind failure; call at most once.
  bool Listen(std::uint16_t port);

  /// The bound port (after a successful Listen).
  std::uint16_t port() const;

  /// Stops accepting new connections (idempotent, any thread); standing
  /// connections keep being served.
  void StopAccepting();

  /// Blocks until StopAccepting() has been called and every connection
  /// has closed.
  void WaitDrained();

  std::size_t open_connections() const;
  std::uint64_t accepted_total() const;
  std::uint64_t rejected_total() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ifsketch::serve

#endif  // IFSKETCH_SERVE_REACTOR_H_
