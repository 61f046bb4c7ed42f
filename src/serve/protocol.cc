#include "serve/protocol.h"

#include <netdb.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ultrawiki {
namespace serve {
namespace {

void AppendU32(uint32_t value, std::string& out) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void AppendU64(uint64_t value, std::string& out) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint32_t ParseU32(const char* bytes) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

uint64_t ParseU64(const char* bytes) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

/// Frames `payload`: the 32-byte header, payload bytes, CRC32 over both.
std::string FramePayload(FrameKind kind, std::string_view payload,
                         const FrameOptions& options) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + 4);
  AppendU32(kFrameMagic, out);
  AppendU32(kFrameVersion, out);
  AppendU32(static_cast<uint32_t>(kind), out);
  AppendU64(payload.size(), out);
  AppendU64(options.trace_id, out);
  AppendU32(options.flags, out);
  out.append(payload);
  AppendU32(Crc32(out), out);
  return out;
}

bool KnownFrameKind(uint32_t kind) {
  // 3 and 4 are the retired ping/pong kinds.
  return kind >= static_cast<uint32_t>(FrameKind::kExpandRequest) &&
         kind <= static_cast<uint32_t>(FrameKind::kHealthResponse) &&
         kind != 3 && kind != 4;
}

// --- The envelope: the only code that knows the head layouts. ---

void PutHead(SnapshotWriter& writer, const RequestHead& head) {
  writer.PutU64(head.request_id);
}

void ReadHead(SnapshotReader& reader, RequestHead* head) {
  reader.ReadU64(&head->request_id);
}

void PutHead(SnapshotWriter& writer, const ReplyHead& head) {
  writer.PutU64(head.request_id);
  writer.PutU32(head.code);
  writer.PutString(head.message);
}

void ReadHead(SnapshotReader& reader, ReplyHead* head) {
  reader.ReadU64(&head->request_id);
  reader.ReadU32(&head->code);
  reader.ReadString(&head->message);
  if (reader.ok() &&
      head->code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    reader.Corrupt("status code out of range");
  }
}

// --- Bodies: one writer and one reader per message. ---

void PutQuery(SnapshotWriter& writer, const Query& query) {
  writer.PutI32(query.ultra_class);
  writer.PutI32Vec(query.pos_seeds);
  writer.PutI32Vec(query.neg_seeds);
}

void ReadQuery(SnapshotReader& reader, Query* query) {
  reader.ReadI32(&query->ultra_class);
  reader.ReadI32Vec(&query->pos_seeds);
  reader.ReadI32Vec(&query->neg_seeds);
}

void PutBody(SnapshotWriter& writer, const WireRequest& request) {
  writer.PutString(request.method);
  writer.PutU32(request.k);
  writer.PutU32(request.timeout_ms);
  writer.PutU32(request.by_index ? 1 : 0);
  writer.PutU32(request.query_index);
  PutQuery(writer, request.query);
}

void ReadBody(SnapshotReader& reader, WireRequest* request) {
  uint32_t by_index = 0;
  reader.ReadString(&request->method);
  reader.ReadU32(&request->k);
  reader.ReadU32(&request->timeout_ms);
  reader.ReadU32(&by_index);
  reader.ReadU32(&request->query_index);
  ReadQuery(reader, &request->query);
  if (reader.ok() && by_index > 1) {
    reader.Corrupt("by_index flag out of range");
  }
  request->by_index = by_index == 1;
}

void PutBody(SnapshotWriter& writer, const WireResponse& response) {
  writer.PutI32Vec(response.ranking);
}

void ReadBody(SnapshotReader& reader, WireResponse* response) {
  reader.ReadI32Vec(&response->ranking);
}

void PutBody(SnapshotWriter& writer, const WireShardRetrieveRequest& request) {
  writer.PutU64(request.size);
  PutQuery(writer, request.query);
}

void ReadBody(SnapshotReader& reader, WireShardRetrieveRequest* request) {
  reader.ReadU64(&request->size);
  ReadQuery(reader, &request->query);
  if (reader.ok() && request->size > kMaxFramePayload) {
    reader.Corrupt("retrieve size implausibly large");
  }
}

void PutBody(SnapshotWriter& writer,
             const WireShardRetrieveResponse& response) {
  writer.PutU64(response.entities.size());
  for (const RecalledEntity& entity : response.entities) {
    writer.PutF32(entity.score);
    writer.PutU64(entity.position);
    writer.PutI32(entity.id);
  }
}

void ReadBody(SnapshotReader& reader, WireShardRetrieveResponse* response) {
  uint64_t count = 0;
  // Each entity is 16 encoded bytes.
  if (!reader.ReadCount(16, "entity", &count)) return;
  response->entities.resize(static_cast<size_t>(count));
  for (RecalledEntity& entity : response->entities) {
    reader.ReadF32(&entity.score);
    reader.ReadU64(&entity.position);
    reader.ReadI32(&entity.id);
  }
}

void PutBody(SnapshotWriter& writer, const WireShardScoreRequest& request) {
  writer.PutI32Vec(request.ids);
  PutQuery(writer, request.query);
}

void ReadBody(SnapshotReader& reader, WireShardScoreRequest* request) {
  reader.ReadI32Vec(&request->ids);
  ReadQuery(reader, &request->query);
}

void PutBody(SnapshotWriter& writer, const WireShardScoreResponse& response) {
  writer.PutFloatVec(response.neg);
}

void ReadBody(SnapshotReader& reader, WireShardScoreResponse* response) {
  reader.ReadFloatVec(&response->neg);
}

void PutBody(SnapshotWriter& writer, const WireQueryLookupRequest& request) {
  writer.PutU32(request.query_index);
}

void ReadBody(SnapshotReader& reader, WireQueryLookupRequest* request) {
  reader.ReadU32(&request->query_index);
}

void PutBody(SnapshotWriter& writer, const WireQueryLookupResponse& response) {
  PutQuery(writer, response.query);
}

void ReadBody(SnapshotReader& reader, WireQueryLookupResponse* response) {
  ReadQuery(reader, &response->query);
}

void PutBody(SnapshotWriter&, const WireHealthRequest&) {}

void ReadBody(SnapshotReader&, WireHealthRequest*) {}

void PutBody(SnapshotWriter& writer, const WireHealthResponse& response) {
  writer.PutU64(response.health.generation);
  writer.PutU32(response.health.draining ? 1 : 0);
  writer.PutU32(response.health.queue_depth);
  writer.PutU32(response.health.inflight);
}

void ReadBody(SnapshotReader& reader, WireHealthResponse* response) {
  uint32_t draining = 0;
  reader.ReadU64(&response->health.generation);
  reader.ReadU32(&draining);
  reader.ReadU32(&response->health.queue_depth);
  reader.ReadU32(&response->health.inflight);
  if (reader.ok() && draining > 1) {
    reader.Corrupt("draining flag out of range");
  }
  response->health.draining = draining == 1;
}

}  // namespace

template <typename Message>
std::string EncodeFrame(const Message& message, const FrameOptions& options) {
  SnapshotWriter writer;
  PutHead(writer, message);
  PutBody(writer, message);
  return FramePayload(Message::kKind, writer.payload(), options);
}

template <typename Message>
Status DecodePayload(std::string_view payload, Message* message) {
  SnapshotReader reader(payload);
  ReadHead(reader, message);
  ReadBody(reader, message);
  return reader.Finish();
}

// One explicit instantiation of the codec per Wire* message.
#define UW_WIRE_MESSAGE(Message)                                         \
  template std::string EncodeFrame(const Message&, const FrameOptions&); \
  template Status DecodePayload(std::string_view, Message*)
UW_WIRE_MESSAGE(WireRequest);
UW_WIRE_MESSAGE(WireResponse);
UW_WIRE_MESSAGE(WireShardRetrieveRequest);
UW_WIRE_MESSAGE(WireShardRetrieveResponse);
UW_WIRE_MESSAGE(WireShardScoreRequest);
UW_WIRE_MESSAGE(WireShardScoreResponse);
UW_WIRE_MESSAGE(WireQueryLookupRequest);
UW_WIRE_MESSAGE(WireQueryLookupResponse);
UW_WIRE_MESSAGE(WireHealthRequest);
UW_WIRE_MESSAGE(WireHealthResponse);
#undef UW_WIRE_MESSAGE

Status ReadExact(int fd, void* buffer, size_t bytes) {
  char* cursor = static_cast<char*>(buffer);
  size_t remaining = bytes;
  while (remaining > 0) {
    const ssize_t got = ::recv(fd, cursor, remaining, 0);
    if (got == 0) {
      if (remaining == bytes) return Status::Unavailable("eof");
      return Status::Internal("connection closed mid-frame");
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("recv: ") + std::strerror(errno));
    }
    cursor += got;
    remaining -= static_cast<size_t>(got);
  }
  return Status::Ok();
}

Status WriteAll(int fd, const void* buffer, size_t bytes) {
  const char* cursor = static_cast<const char*>(buffer);
  size_t remaining = bytes;
  while (remaining > 0) {
    const ssize_t sent = ::send(fd, cursor, remaining, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send: ") + std::strerror(errno));
    }
    cursor += sent;
    remaining -= static_cast<size_t>(sent);
  }
  return Status::Ok();
}

StatusOr<Frame> ReadFrame(int fd) {
  char header[kFrameHeaderBytes];
  Status status = ReadExact(fd, header, kFrameHeaderBytes);
  if (!status.ok()) return status;
  if (ParseU32(header) != kFrameMagic) {
    return Status::Internal("bad frame magic");
  }
  const uint32_t version = ParseU32(header + 4);
  if (version != kFrameVersion) {
    return Status::Internal("unsupported frame version " +
                            std::to_string(version));
  }
  const uint32_t kind = ParseU32(header + 8);
  if (!KnownFrameKind(kind)) {
    return Status::Internal("unknown frame kind " + std::to_string(kind));
  }
  const uint64_t payload_len = ParseU64(header + 12);
  if (payload_len > kMaxFramePayload) {
    return Status::Internal("frame payload too large (" +
                            std::to_string(payload_len) + " bytes)");
  }
  Frame frame;
  frame.kind = static_cast<FrameKind>(kind);
  frame.trace_id = ParseU64(header + 20);
  frame.flags = ParseU32(header + 28);
  frame.payload.resize(static_cast<size_t>(payload_len));
  if (payload_len > 0) {
    status = ReadExact(fd, frame.payload.data(), frame.payload.size());
    if (!status.ok()) {
      if (status.code() == StatusCode::kUnavailable) {
        return Status::Internal("connection closed mid-frame");
      }
      return status;
    }
  }
  char footer[4];
  status = ReadExact(fd, footer, sizeof(footer));
  if (!status.ok()) {
    if (status.code() == StatusCode::kUnavailable) {
      return Status::Internal("connection closed before checksum");
    }
    return status;
  }
  uint32_t crc = Crc32(std::string_view(header, kFrameHeaderBytes));
  crc = Crc32(frame.payload, crc);
  if (crc != ParseU32(footer)) {
    return Status::Internal("frame checksum mismatch");
  }
  return frame;
}

StatusOr<int> Dial(const std::string& host, int port, int timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &results);
  if (rc != 0) {
    return Status::Unavailable(std::string("getaddrinfo: ") +
                               ::gai_strerror(rc));
  }
  int fd = -1;
  Status last = Status::Unavailable("no addresses for " + host);
  timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::Internal(std::string("socket: ") + std::strerror(errno));
      continue;
    }
    if (timeout_ms > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last = Status::Unavailable(std::string("connect: ") +
                               std::strerror(errno));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0) return last;
  return fd;
}

}  // namespace serve
}  // namespace ultrawiki
