#include "serve/admin.h"

#include <sys/socket.h>
#include <unistd.h>

#include "ann/ivf_index.h"
#include "common/logging.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "serve/protocol.h"

namespace ultrawiki {
namespace serve {
namespace {

/// Minimal request-line parse: "GET <path> HTTP/1.x". Query strings are
/// stripped — routes carry no parameters. Empty on anything malformed.
std::string ParseRequestPath(const std::string& request) {
  const size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  if (line.compare(0, 4, "GET ") != 0) return "";
  const size_t path_end = line.find(' ', 4);
  if (path_end == std::string::npos) return "";
  std::string path = line.substr(4, path_end - 4);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  return path;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

}  // namespace

AdminServer::AdminServer(ServiceHost& host)
    : host_(host),
      listener_("serve.admin", [this](int fd) { HandleConnection(fd); }) {}

AdminServer::AdminServer(ExpansionService& service)
    : owned_host_(std::make_unique<ServiceHost>()),
      host_(*owned_host_),
      listener_("serve.admin", [this](int fd) { HandleConnection(fd); }) {
  owned_host_->Install(ServiceHost::Borrow(service));
}

AdminServer::~AdminServer() { Shutdown(); }

Status AdminServer::Start(int port) {
  return listener_.Start(port, /*backlog=*/16);
}

AdminServer::HttpReply AdminServer::Handle(const std::string& path) const {
  HttpReply reply;
  if (path == "/metrics") {
    reply.body = obs::ExportPrometheus(obs::SnapshotMetrics());
    return reply;
  }
  // Status routes pin the current generation so a concurrent hot swap
  // cannot yank the service out from under the field reads.
  const std::shared_ptr<ServiceHost::Generation> generation = host_.Current();
  const ExpansionService* service =
      generation != nullptr ? generation->service : nullptr;
  if (path == "/healthz") {
    if (service == nullptr || service->draining()) {
      reply.status = 503;
      reply.body = service == nullptr ? "no generation\n" : "draining\n";
    } else {
      reply.body = "ok\n";
    }
    return reply;
  }
  if (path == "/statusz") {
    const obs::SlowQueryLog& slow_log = obs::SlowQueryLog::Global();
    const ServeConfig config =
        service != nullptr ? service->config() : ServeConfig{};
    const ShardSpec shard =
        service != nullptr ? service->shard_spec() : ShardSpec{};
    reply.content_type = "application/json";
    reply.body = "{\"draining\":";
    reply.body += (service == nullptr || service->draining()) ? "1" : "0";
    reply.body += ",\"queue_depth\":";
    reply.body += std::to_string(service != nullptr ? service->queue_depth()
                                                    : 0);
    reply.body += ",\"inflight\":";
    reply.body +=
        std::to_string(service != nullptr ? service->inflight() : 0);
    reply.body += ",\"slots\":";
    reply.body += std::to_string(service != nullptr ? service->slots() : 0);
    reply.body += ",\"generation\":";
    reply.body +=
        std::to_string(generation != nullptr ? generation->id : 0);
    reply.body += ",\"shard_index\":";
    reply.body += std::to_string(shard.index);
    reply.body += ",\"shard_count\":";
    reply.body += std::to_string(shard.count);
    reply.body += ",\"max_queue\":";
    reply.body += std::to_string(config.max_queue);
    reply.body += ",\"trace_sample\":";
    reply.body += std::to_string(config.trace_sample);
    reply.body += ",\"slow_query_ms\":";
    reply.body += std::to_string(config.slow_query_ms);
    reply.body += ",\"slow_log_recorded\":";
    reply.body += std::to_string(slow_log.total_recorded());
    reply.body += ",\"slow_log_capacity\":";
    reply.body += std::to_string(slow_log.capacity());
    // ANN first-stage health: whether the knob is on for this process,
    // index shape, and the query/probe counters that show how much of the
    // store the IVF path is actually touching.
    reply.body += ",\"ann\":{\"enabled\":";
    reply.body += AnnEnabledFromEnv() ? "1" : "0";
    reply.body += ",\"nlist\":";
    reply.body += std::to_string(obs::GetGauge("ann.nlist").Value());
    reply.body += ",\"rows\":";
    reply.body += std::to_string(obs::GetGauge("ann.rows").Value());
    reply.body += ",\"queries\":";
    reply.body += std::to_string(obs::GetCounter("ann.queries").Value());
    reply.body += ",\"lists_probed\":";
    reply.body += std::to_string(obs::GetCounter("ann.lists_probed").Value());
    reply.body += ",\"candidates_returned\":";
    reply.body +=
        std::to_string(obs::GetCounter("ann.candidates_returned").Value());
    reply.body += ",\"fallback_exact\":";
    reply.body +=
        std::to_string(obs::GetCounter("ann.fallback_exact").Value());
    reply.body += "}}\n";
    return reply;
  }
  if (path == "/slow") {
    reply.content_type = "application/json";
    reply.body =
        obs::ExportChromeTraceJson(obs::SlowQueryLog::Global().Snapshot());
    return reply;
  }
  if (path == "/slowz") {
    reply.content_type = "application/json";
    reply.body =
        obs::ExportRequestTracesJson(obs::SlowQueryLog::Global().Snapshot());
    return reply;
  }
  reply.status = 404;
  reply.body =
      "not found; routes: /metrics /healthz /statusz /slow /slowz\n";
  return reply;
}

void AdminServer::HandleConnection(int fd) {
  // One request per connection (HTTP/1.0 close semantics): read what the
  // client sent — the request line is all we route on — answer, done.
  // The fd is owned by the listener, which closes it when we return.
  char buffer[4096];
  const ssize_t got = ::recv(fd, buffer, sizeof(buffer) - 1, 0);
  if (got > 0) {
    buffer[got] = '\0';
    const std::string path = ParseRequestPath(buffer);
    const HttpReply reply =
        path.empty() ? HttpReply{404, "text/plain; charset=utf-8",
                                 "bad request\n"}
                     : Handle(path);
    std::string out = "HTTP/1.0 " + std::to_string(reply.status) + " " +
                      ReasonPhrase(reply.status) + "\r\n";
    out += "Content-Type: " + reply.content_type + "\r\n";
    out += "Content-Length: " + std::to_string(reply.body.size()) + "\r\n";
    out += "Connection: close\r\n\r\n";
    out += reply.body;
    (void)WriteAll(fd, out.data(), out.size());
  }
}

void AdminServer::Shutdown() { listener_.Shutdown(); }

}  // namespace serve
}  // namespace ultrawiki
