#include "serve/server.h"

#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/service_host.h"

namespace ultrawiki {
namespace serve {
namespace {

struct NetMetrics {
  obs::Counter& requests = obs::GetCounter("serve.net.requests");
  obs::Counter& protocol_errors =
      obs::GetCounter("serve.net.protocol_errors");
};

NetMetrics& Metrics() {
  static NetMetrics* metrics = new NetMetrics();
  return *metrics;
}

/// Moves an OK result's value into the reply body and returns the status
/// the reply head carries.
template <typename T>
Status Take(StatusOr<T> result, T* body) {
  if (!result.ok()) return result.status();
  *body = std::move(*result);
  return Status::Ok();
}

}  // namespace

TcpServer::TcpServer(Frontend& frontend)
    : frontend_(frontend),
      listener_("serve.net", [this](int fd) { HandleConnection(fd); }) {
  Metrics();
}

TcpServer::TcpServer(ExpansionService& service)
    : owned_host_(std::make_unique<ServiceHost>()),
      frontend_(*owned_host_),
      listener_("serve.net", [this](int fd) { HandleConnection(fd); }) {
  Metrics();
  owned_host_->Install(ServiceHost::Borrow(service));
}

TcpServer::~TcpServer() { Shutdown(); }

Status TcpServer::Start(int port) {
  return listener_.Start(port, /*backlog=*/128);
}

void TcpServer::HandleConnection(int fd) {
  // The fd is owned by the listener: it read-shuts it on Shutdown and
  // deregisters + closes it when this handler returns.
  while (true) {
    StatusOr<Frame> frame = ReadFrame(fd);
    StatusOr<std::string> reply =
        frame.ok() ? Answer(*frame) : StatusOr<std::string>(frame.status());
    if (reply.ok()) {
      if (!WriteAll(fd, reply->data(), reply->size()).ok()) return;
      continue;
    }
    // A clean EOF ends the session; anything else (a bad frame, an
    // undecodable payload, a kind a server never receives) is a protocol
    // error worth counting, and fatal for this connection either way.
    const Status& status = reply.status();
    if (!(status.code() == StatusCode::kUnavailable &&
          status.message() == "eof")) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      Metrics().protocol_errors.Increment();
      UW_LOG(Warning) << "connection dropped: " << status;
    }
    return;
  }
}

template <typename Request, typename Handler>
StatusOr<std::string> TcpServer::Serve(const Frame& frame, Handler handler) {
  Request request;
  const Status decoded = DecodePayload(frame.payload, &request);
  if (!decoded.ok()) return decoded;
  // Health polls are the router's bookkeeping, not work.
  if constexpr (!std::is_same_v<Request, WireHealthRequest>) {
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    Metrics().requests.Increment();
  }
  typename Request::Reply reply;
  reply.request_id = request.request_id;
  const Status status = handler(request, &reply);
  reply.code = static_cast<uint32_t>(status.code());
  reply.message = status.message();
  return EncodeFrame(reply);
}

StatusOr<std::string> TcpServer::Answer(const Frame& frame) {
  switch (frame.kind) {
    case FrameKind::kExpandRequest:
      return Serve<WireRequest>(frame, [&](WireRequest& request,
                                           WireResponse* reply) {
        ExpandRequest expand;
        expand.method = request.method;
        expand.k = static_cast<int>(request.k);
        expand.timeout_ms =
            request.timeout_ms > 0 ? static_cast<int>(request.timeout_ms) : -1;
        // Trace context rides in the frame header, not the payload.
        expand.trace_id = frame.trace_id;
        expand.force_trace = (frame.flags & kFrameFlagSample) != 0;
        if (request.by_index) {
          StatusOr<Query> query = frontend_.QueryByIndex(request.query_index);
          if (!query.ok()) return query.status();
          expand.query = std::move(*query);
        } else {
          expand.query = std::move(request.query);
        }
        // Blocking per connection keeps responses in request order; the
        // service runs requests from different connections at once.
        ExpandResult result = frontend_.Expand(std::move(expand));
        reply->ranking = std::move(result.ranking);
        return result.status;
      });
    case FrameKind::kShardRetrieveRequest:
      return Serve<WireShardRetrieveRequest>(
          frame, [this](WireShardRetrieveRequest& request,
                        WireShardRetrieveResponse* reply) {
            return Take(frontend_.ScatterRetrieve(
                            request.query, static_cast<size_t>(request.size)),
                        &reply->entities);
          });
    case FrameKind::kShardScoreRequest:
      return Serve<WireShardScoreRequest>(
          frame, [this](WireShardScoreRequest& request,
                        WireShardScoreResponse* reply) {
            return Take(frontend_.ScatterScore(request.query, request.ids),
                        &reply->scores);
          });
    case FrameKind::kQueryLookupRequest:
      return Serve<WireQueryLookupRequest>(
          frame, [this](WireQueryLookupRequest& request,
                        WireQueryLookupResponse* reply) {
            return Take(frontend_.QueryByIndex(request.query_index),
                        &reply->query);
          });
    case FrameKind::kHealthRequest:
      return Serve<WireHealthRequest>(
          frame, [this](WireHealthRequest&, WireHealthResponse* reply) {
            return Take(frontend_.Health(), &reply->health);
          });
    default:
      // Reply kinds arriving at a server are a protocol violation.
      return Status::Internal(
          "unexpected frame kind " +
          std::to_string(static_cast<uint32_t>(frame.kind)));
  }
}

void TcpServer::Shutdown() {
  listener_.Shutdown();
  frontend_.Drain();
}

}  // namespace serve
}  // namespace ultrawiki
