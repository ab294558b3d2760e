// Shared rig for the serve tests: the production reactor on an
// ephemeral 127.0.0.1 port, sized small (two event loops, so concurrent
// clients land on different loops) so sanitizer runs stay light, plus a
// socketpair(2) helper for cases that need a silent or fault-injected
// peer.
#ifndef IFSKETCH_TESTS_SERVE_TEST_SERVER_H_
#define IFSKETCH_TESTS_SERVE_TEST_SERVER_H_

#include <sys/socket.h>

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "serve/reactor.h"
#include "serve/server.h"

namespace ifsketch::serve {

/// A ReactorServer over `router`, listening once constructed. Declare it
/// after the router it serves, so it shuts down first.
class TestServer {
 public:
  explicit TestServer(Router& router) : reactor_(router, SmallOptions()) {
    EXPECT_TRUE(reactor_.Listen(0));
  }

  /// A fresh client connection; nullptr if the connect fails.
  std::unique_ptr<Transport> Connect() { return TcpConnect(reactor_.port()); }

 private:
  static ReactorOptions SmallOptions() {
    ReactorOptions options;
    options.loop_threads = 2;
    return options;
  }

  ReactorServer reactor_;
};

/// A connected AF_UNIX stream pair as two FdTransports.
inline std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
SocketPair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {std::make_unique<FdTransport>(fds[0]),
          std::make_unique<FdTransport>(fds[1])};
}

}  // namespace ifsketch::serve

#endif  // IFSKETCH_TESTS_SERVE_TEST_SERVER_H_
