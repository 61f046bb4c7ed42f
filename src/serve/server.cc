#include "serve/server.h"

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
    if (!frame.ok()) {
      // A clean EOF ends the session; anything else is a protocol error
      // worth counting (and fatal for this connection either way).
      if (!(frame.status().code() == StatusCode::kUnavailable &&
            frame.status().message() == "eof")) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        Metrics().protocol_errors.Increment();
        UW_LOG(Warning) << "connection dropped: " << frame.status();
      }
      return;
    }
    if (frame->kind == FrameKind::kPing) {
      const std::string pong = EncodeControlFrame(FrameKind::kPong);
      if (!WriteAll(fd, pong.data(), pong.size()).ok()) return;
      continue;
    }

    if (frame->kind == FrameKind::kExpandRequest) {
      WireRequest request;
      const Status decoded = DecodeRequestPayload(frame->payload, &request);
      if (!decoded.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        Metrics().protocol_errors.Increment();
        UW_LOG(Warning) << "undecodable request: " << decoded;
        return;
      }
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      Metrics().requests.Increment();

      WireResponse response;
      response.request_id = request.request_id;
      ExpandRequest expand;
      expand.method = request.method;
      expand.k = static_cast<int>(request.k);
      expand.timeout_ms =
          request.timeout_ms > 0 ? static_cast<int>(request.timeout_ms) : -1;
      // Trace context rides in the frame header, not the payload.
      expand.trace_id = frame->trace_id;
      expand.force_trace = (frame->flags & kFrameFlagSample) != 0;
      bool resolved = true;
      if (request.by_index) {
        StatusOr<Query> query = frontend_.QueryByIndex(request.query_index);
        if (!query.ok()) {
          response.code = static_cast<uint32_t>(query.status().code());
          response.message = query.status().message();
          resolved = false;
        } else {
          expand.query = std::move(*query);
        }
      } else {
        expand.query = std::move(request.query);
      }
      if (resolved) {
        // Blocking per connection keeps responses in request order; the
        // service batches across connections, not within one.
        ExpandResult result = frontend_.Expand(std::move(expand));
        response.code = static_cast<uint32_t>(result.status.code());
        response.message = result.status.message();
        response.ranking = std::move(result.ranking);
      }
      const std::string encoded = EncodeResponseFrame(response);
      if (!WriteAll(fd, encoded.data(), encoded.size()).ok()) return;
      continue;
    }

    if (frame->kind == FrameKind::kShardRetrieveRequest) {
      WireShardRetrieveRequest request;
      const Status decoded =
          DecodeShardRetrieveRequestPayload(frame->payload, &request);
      if (!decoded.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        Metrics().protocol_errors.Increment();
        UW_LOG(Warning) << "undecodable shard retrieve: " << decoded;
        return;
      }
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      Metrics().requests.Increment();
      WireShardRetrieveResponse response;
      response.request_id = request.request_id;
      StatusOr<std::vector<ShardScoredEntity>> entities =
          frontend_.ScatterRetrieve(request.query,
                                    static_cast<size_t>(request.size));
      if (entities.ok()) {
        response.entities = std::move(*entities);
      } else {
        response.code = static_cast<uint32_t>(entities.status().code());
        response.message = entities.status().message();
      }
      const std::string encoded = EncodeShardRetrieveResponseFrame(response);
      if (!WriteAll(fd, encoded.data(), encoded.size()).ok()) return;
      continue;
    }

    if (frame->kind == FrameKind::kShardScoreRequest) {
      WireShardScoreRequest request;
      const Status decoded =
          DecodeShardScoreRequestPayload(frame->payload, &request);
      if (!decoded.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        Metrics().protocol_errors.Increment();
        UW_LOG(Warning) << "undecodable shard score: " << decoded;
        return;
      }
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      Metrics().requests.Increment();
      WireShardScoreResponse response;
      response.request_id = request.request_id;
      StatusOr<ShardScores> scores =
          frontend_.ScatterScore(request.query, request.ids);
      if (scores.ok()) {
        response.scores = std::move(*scores);
      } else {
        response.code = static_cast<uint32_t>(scores.status().code());
        response.message = scores.status().message();
      }
      const std::string encoded = EncodeShardScoreResponseFrame(response);
      if (!WriteAll(fd, encoded.data(), encoded.size()).ok()) return;
      continue;
    }

    if (frame->kind == FrameKind::kQueryLookupRequest) {
      WireQueryLookupRequest request;
      const Status decoded =
          DecodeQueryLookupRequestPayload(frame->payload, &request);
      if (!decoded.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        Metrics().protocol_errors.Increment();
        UW_LOG(Warning) << "undecodable query lookup: " << decoded;
        return;
      }
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      Metrics().requests.Increment();
      WireQueryLookupResponse response;
      response.request_id = request.request_id;
      StatusOr<Query> query = frontend_.QueryByIndex(request.query_index);
      if (query.ok()) {
        response.query = std::move(*query);
      } else {
        response.code = static_cast<uint32_t>(query.status().code());
        response.message = query.status().message();
      }
      const std::string encoded = EncodeQueryLookupResponseFrame(response);
      if (!WriteAll(fd, encoded.data(), encoded.size()).ok()) return;
      continue;
    }

    // Response kinds (or future kinds) arriving at a server are a
    // protocol violation.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    Metrics().protocol_errors.Increment();
    return;
  }
}

void TcpServer::Shutdown() {
  listener_.Shutdown();
  frontend_.Drain();
}

}  // namespace serve
}  // namespace ultrawiki
