#include "serve/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <type_traits>
#include <utility>

namespace ultrawiki {
namespace serve {

StatusOr<ServeClient> ServeClient::Connect(const std::string& host, int port,
                                           int timeout_ms) {
  StatusOr<int> fd = Dial(host, port, timeout_ms);
  if (!fd.ok()) return fd.status();
  const int enable = 1;
  ::setsockopt(*fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  ServeClient client;
  client.fd_ = *fd;
  return client;
}

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_request_id_(other.next_request_id_),
      force_trace_(other.force_trace_),
      last_trace_id_(other.last_trace_id_) {}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    next_request_id_ = other.next_request_id_;
    force_trace_ = other.force_trace_;
    last_trace_id_ = other.last_trace_id_;
  }
  return *this;
}

ServeClient::~ServeClient() { Close(); }

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FrameOptions ServeClient::MakeFrameOptions(uint64_t request_id) {
  // The request id doubles as the trace id: unique per connection and
  // easy to correlate with client-side logs.
  FrameOptions options;
  options.trace_id = request_id;
  if (force_trace_) options.flags |= kFrameFlagSample;
  last_trace_id_ = options.trace_id;
  return options;
}

template <typename Request, typename Reply, typename Body>
StatusOr<Body> ServeClient::Call(Request request, Body Reply::*body) {
  static_assert(std::is_same_v<Reply, typename Request::Reply>);
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  const auto fail = [this](Status status) {
    Close();
    return status;
  };
  request.request_id = next_request_id_++;
  const std::string encoded =
      EncodeFrame(request, MakeFrameOptions(request.request_id));
  if (Status sent = WriteAll(fd_, encoded.data(), encoded.size());
      !sent.ok()) {
    return fail(std::move(sent));
  }
  StatusOr<Frame> frame = ReadFrame(fd_);
  if (!frame.ok()) return fail(frame.status());
  if (frame->kind != Reply::kKind) {
    return fail(Status::Internal(
        "expected frame kind " +
        std::to_string(static_cast<int>(Reply::kKind)) + ", got " +
        std::to_string(static_cast<int>(frame->kind))));
  }
  Reply reply;
  if (Status decoded = DecodePayload(frame->payload, &reply); !decoded.ok()) {
    return fail(std::move(decoded));
  }
  if (reply.request_id != request.request_id) {
    return fail(Status::Internal("response id mismatch"));
  }
  if (reply.code != 0) return reply.ToStatus();
  return std::move(reply.*body);
}

namespace {

WireRequest MakeExpandRequest(const std::string& method, int k,
                              int timeout_ms) {
  WireRequest request;
  request.method = method;
  request.k = static_cast<uint32_t>(k > 0 ? k : 0);
  request.timeout_ms =
      static_cast<uint32_t>(timeout_ms > 0 ? timeout_ms : 0);
  return request;
}

}  // namespace

StatusOr<std::vector<EntityId>> ServeClient::ExpandByIndex(
    const std::string& method, uint32_t query_index, int k, int timeout_ms) {
  WireRequest request = MakeExpandRequest(method, k, timeout_ms);
  request.by_index = true;
  request.query_index = query_index;
  return Call(std::move(request), &WireResponse::ranking);
}

StatusOr<std::vector<EntityId>> ServeClient::ExpandQuery(
    const std::string& method, const Query& query, int k, int timeout_ms) {
  WireRequest request = MakeExpandRequest(method, k, timeout_ms);
  request.by_index = false;
  request.query = query;
  return Call(std::move(request), &WireResponse::ranking);
}

StatusOr<std::vector<RecalledEntity>> ServeClient::ScatterRetrieve(
    const Query& query, uint64_t size) {
  WireShardRetrieveRequest request;
  request.size = size;
  request.query = query;
  return Call(std::move(request), &WireShardRetrieveResponse::entities);
}

StatusOr<std::vector<float>> ServeClient::ScatterScore(
    const Query& query, const std::vector<EntityId>& ids) {
  WireShardScoreRequest request;
  request.ids = ids;
  request.query = query;
  StatusOr<std::vector<float>> scores =
      Call(std::move(request), &WireShardScoreResponse::neg);
  if (scores.ok() && scores->size() != ids.size()) {
    Close();  // a reply this client cannot use, like an undecodable one
    return Status::Internal("score count mismatch");
  }
  return scores;
}

StatusOr<Query> ServeClient::QueryLookup(uint32_t query_index) {
  WireQueryLookupRequest request;
  request.query_index = query_index;
  return Call(std::move(request), &WireQueryLookupResponse::query);
}

StatusOr<HealthReport> ServeClient::Health() {
  return Call(WireHealthRequest{}, &WireHealthResponse::health);
}

}  // namespace serve
}  // namespace ultrawiki
