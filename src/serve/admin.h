#ifndef ULTRAWIKI_SERVE_ADMIN_H_
#define ULTRAWIKI_SERVE_ADMIN_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "serve/service_host.h"
#include "serve/tcp_listener.h"

namespace ultrawiki {
namespace serve {

/// Live telemetry sidecar for uw_serve and the shard servers: a second
/// listener (bound by `UW_ADMIN_PORT`) speaking just enough HTTP/1.0 for
/// curl and a Prometheus scraper, so the serving process can be inspected
/// mid-load without touching the request plane. The cluster router does
/// not use it: it polls the UWF1 Health call on the request port. Routes:
///
///   /metrics  Prometheus text exposition of every registered metric,
///             including the sliding-window serving percentiles
///             (uw_serve_latency_us_1m quantile series).
///   /healthz  "ok" while serving, 503 "draining" once drain started.
///   /statusz  one-line JSON: draining flag, queue depth, in-flight
///             count, execution slots, serving generation, shard scope,
///             config knobs, slow-log totals. Its draining,
///             queue_depth, inflight and generation fields are
///             ServiceHost::HealthOf, what the Health call reports.
///   /slow     the slow-query log as Chrome trace-event JSON — save and
///             load into chrome://tracing or Perfetto.
///   /slowz    the same traces as plain structured JSON for scripts.
///
/// One short-lived handler thread per connection (TcpListener; admin
/// traffic is a human or a scraper — not a fleet).
/// Responses are built from lock-free metric snapshots and the
/// mutex-guarded slow-log ring, so scraping under full serving load is
/// safe — asserted by the concurrent-scrape test under TSan. Status
/// fields read the *current* generation, so a hot swap is visible on the
/// next scrape.
class AdminServer {
 public:
  /// `host` must outlive the admin server (the uw_serve / shard path:
  /// status follows the installed generation across hot swaps).
  explicit AdminServer(ServiceHost& host);

  /// Convenience for single-service setups (tests, benches): wraps
  /// `service` in an internally-owned single-generation ServiceHost.
  /// `service` must outlive the admin server.
  explicit AdminServer(ExpansionService& service);

  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds 0.0.0.0:`port` (0 picks an ephemeral port), listens, and
  /// spawns the accept thread. Call at most once.
  Status Start(int port);

  /// The bound port (after a successful Start).
  int port() const { return listener_.port(); }

  /// Stops accepting, joins the handlers; idempotent.
  void Shutdown();

  /// Route dispatch, exposed for tests: the response body and content
  /// type for `path`, or a 404 body. Exactly what a socket client gets.
  struct HttpReply {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };
  HttpReply Handle(const std::string& path) const;

 private:
  void HandleConnection(int fd);

  /// Set only by the ExpansionService convenience constructor.
  std::unique_ptr<ServiceHost> owned_host_;
  ServiceHost& host_;
  TcpListener listener_;
};

}  // namespace serve
}  // namespace ultrawiki

#endif  // ULTRAWIKI_SERVE_ADMIN_H_
