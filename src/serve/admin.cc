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

/// Appends `"key":value` to a JSON object under construction, after a
/// comma unless the object was just opened.
void AppendField(std::string& json, const char* key, int64_t value) {
  if (json.back() != '{') json += ',';
  json += '"';
  json += key;
  json += "\":";
  json += std::to_string(value);
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
  const HealthReport health = ServiceHost::HealthOf(generation.get());
  if (path == "/healthz") {
    if (health.draining) reply.status = 503;
    reply.body = !health.draining          ? "ok\n"
                 : health.generation == 0 ? "no generation\n"
                                          : "draining\n";
    return reply;
  }
  if (path == "/statusz") {
    const obs::SlowQueryLog& slow_log = obs::SlowQueryLog::Global();
    const ServeConfig config =
        service != nullptr ? service->config() : ServeConfig{};
    const ShardSpec shard =
        service != nullptr ? service->shard_spec() : ShardSpec{};
    reply.content_type = "application/json";
    std::string& json = reply.body;
    json = "{";
    AppendField(json, "draining", health.draining ? 1 : 0);
    AppendField(json, "queue_depth", health.queue_depth);
    AppendField(json, "inflight", health.inflight);
    AppendField(json, "slots", service != nullptr ? service->slots() : 0);
    AppendField(json, "generation", static_cast<int64_t>(health.generation));
    AppendField(json, "shard_index", shard.index);
    AppendField(json, "shard_count", shard.count);
    AppendField(json, "max_queue", config.max_queue);
    AppendField(json, "default_timeout_ms", config.default_timeout_ms);
    AppendField(json, "trace_sample", config.trace_sample);
    AppendField(json, "slow_query_ms", config.slow_query_ms);
    AppendField(json, "slow_log_recorded", slow_log.total_recorded());
    AppendField(json, "slow_log_capacity", slow_log.capacity());
    // ANN first-stage health: whether the knob is on for this process,
    // index shape, and the query/probe counters that show how much of the
    // store the IVF path is actually touching.
    json += ",\"ann\":{";
    AppendField(json, "enabled", AnnEnabledFromEnv() ? 1 : 0);
    AppendField(json, "nlist", obs::GetGauge("ann.nlist").Value());
    AppendField(json, "rows", obs::GetGauge("ann.rows").Value());
    for (const char* counter : {"queries", "lists_probed",
                                "candidates_returned", "fallback_exact"}) {
      AppendField(json, counter,
                  obs::GetCounter(std::string("ann.") + counter).Value());
    }
    json += "}}\n";
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
