#ifndef ULTRAWIKI_SERVE_SERVER_H_
#define ULTRAWIKI_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "serve/frontend.h"
#include "serve/tcp_listener.h"

namespace ultrawiki {
namespace serve {

class ServiceHost;

/// TCP front-end over a Frontend: accepts connections on a
/// loopback-reachable port and speaks the framed protocol of
/// serve/protocol.h — the request plane (expand, health) and the scatter
/// plane (shard retrieve/score, query lookup) on one port. One handler
/// thread per connection, which also runs the connection's requests, in
/// order (clients that want concurrency open several connections — the
/// service's execution slots serve that many at once).
///
/// Connection lifecycle (accept-error survival, fd registry hygiene,
/// handler reaping) lives in TcpListener.
///
/// `Shutdown()` is the graceful-drain path: the listener closes (no new
/// connections), open connections are read-shut so handlers finish their
/// in-flight responses and exit, handler threads are joined, and the
/// frontend drains. Safe to call from a signal-triggered control flow
/// (not from inside the handler threads).
class TcpServer {
 public:
  /// `frontend` must outlive the server. This is the cluster-aware
  /// entry point: pass a ServiceHost (single process or shard) or a
  /// ClusterRouter.
  explicit TcpServer(Frontend& frontend);

  /// Convenience for the single-service setups (tests, benches):
  /// wraps `service` in an internally-owned single-generation
  /// ServiceHost. `service` must outlive the server; Shutdown() drains
  /// it, exactly like the frontend path.
  explicit TcpServer(ExpansionService& service);

  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds 0.0.0.0:`port` (0 picks an ephemeral port), listens, and
  /// spawns the accept thread. Call at most once.
  Status Start(int port);

  /// The bound port (after a successful Start).
  int port() const { return listener_.port(); }

  /// Graceful drain; idempotent. Blocks until every handler has exited
  /// and the frontend has drained.
  void Shutdown();

  /// Lifetime totals, readable after Shutdown. `requests_served` counts
  /// the work calls (expand, shard retrieve/score, query lookup), as does
  /// the `serve.net.requests` counter; Health polls are not counted.
  int64_t connections_accepted() const {
    return listener_.connections_accepted();
  }
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  int64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }
  int64_t accept_errors() const { return listener_.accept_errors(); }

  /// The underlying listener, for lifecycle assertions in tests
  /// (open_connections, tracked_handler_threads, ReapFinishedHandlers).
  TcpListener& listener() { return listener_; }

 private:
  void HandleConnection(int fd);
  /// The encoded reply frame to `frame`, or the protocol error that ends
  /// the connection.
  StatusOr<std::string> Answer(const Frame& frame);
  /// The one request/reply path of every call: decodes a `Request`, runs
  /// `handler(request, &reply)` — which fills the reply body and returns
  /// the status the reply head carries — and encodes the reply.
  template <typename Request, typename Handler>
  StatusOr<std::string> Serve(const Frame& frame, Handler handler);

  /// Set only by the ExpansionService convenience constructor.
  std::unique_ptr<ServiceHost> owned_host_;
  Frontend& frontend_;
  TcpListener listener_;

  std::atomic<int64_t> requests_served_{0};
  std::atomic<int64_t> protocol_errors_{0};
};

}  // namespace serve
}  // namespace ultrawiki

#endif  // ULTRAWIKI_SERVE_SERVER_H_
