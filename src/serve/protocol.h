#ifndef ULTRAWIKI_SERVE_PROTOCOL_H_
#define ULTRAWIKI_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataset/dataset.h"
#include "expand/retexpan.h"
#include "io/snapshot.h"

namespace ultrawiki {
namespace serve {

/// Length-prefixed framed wire protocol for the online expansion service.
/// Frames reuse the UWS2 discipline from io/snapshot.h — the same header
/// layout, field-explicit little-endian payload records (SnapshotWriter /
/// SnapshotReader), and a trailing CRC32 over header + payload — under a
/// distinct magic so a stray snapshot file never parses as a frame:
///
///   offset  size  field
///        0     4  magic "UWF1" (0x55574631, little-endian u32)
///        4     4  protocol version (2, u32)
///        8     4  frame kind tag (FrameKind, u32)
///       12     8  payload byte length (u64)
///       20     8  trace id (u64; 0 = none)
///       28     4  trace flags (u32; bit 0 = sample this request)
///       32     N  payload
///     32+N     4  CRC32 (IEEE) over bytes [0, 32+N)
///
/// Decoding fails closed into `Status`: bad magic, any version other
/// than kFrameVersion (the retired 20-byte v1 header included), unknown
/// kind, an implausible length (> kMaxFramePayload), checksum mismatch,
/// and truncation all reject the frame before any payload field is
/// trusted. The CRC covers the trace-context bytes, so a corrupted trace
/// id is caught like any payload flip.
///
/// The protocol has five calls, each one request frame answered by one
/// reply frame of the paired kind:
///
///   Expand         WireRequest              -> WireResponse
///   ShardRetrieve  WireShardRetrieveRequest -> WireShardRetrieveResponse
///   ShardScore     WireShardScoreRequest    -> WireShardScoreResponse
///   QueryLookup    WireQueryLookupRequest   -> WireQueryLookupResponse
///   Health         WireHealthRequest        -> WireHealthResponse
///
/// Every call shares one envelope. A request payload is a u64 request id
/// (RequestHead), then the call's body. A reply payload is the echoed u64
/// id, a u32 StatusCode and a message string (ReplyHead), then the call's
/// body — written even when the status is an error. Only EncodeFrame and
/// DecodePayload know the envelope; each call contributes a body writer
/// and a body reader.

inline constexpr uint32_t kFrameMagic = 0x55574631;  // "1FWU" on disk
/// The only version decoders accept.
inline constexpr uint32_t kFrameVersion = 2;
/// Fixed header size, magic through trace flags.
inline constexpr size_t kFrameHeaderBytes = 32;
/// FrameOptions::flags bit: the sender asks for this request to be
/// traced end to end regardless of the server's sampling rate.
inline constexpr uint32_t kFrameFlagSample = 1u << 0;
/// Requests carry a handful of seed ids and responses at most a few
/// thousand ranked ids; 16 MiB bounds a hostile length field.
inline constexpr uint64_t kMaxFramePayload = 16ull << 20;

/// Every kind is one side of a call. Kinds 3 and 4 (the retired
/// payload-free ping/pong) are never reused: a frame of either kind fails
/// closed as an unknown kind.
enum class FrameKind : uint32_t {
  kExpandRequest = 1,
  kExpandResponse = 2,
  // --- Scatter plane (cluster serving, serve/router.h). Shard servers
  // answer these alongside the request plane; the router never needs a
  // second port or protocol. ---
  kShardRetrieveRequest = 5,
  kShardRetrieveResponse = 6,
  kShardScoreRequest = 7,
  kShardScoreResponse = 8,
  kQueryLookupRequest = 9,
  kQueryLookupResponse = 10,
  // --- Replica health, the router's poll (serve/router.h). ---
  kHealthRequest = 11,
  kHealthResponse = 12,
};

/// Envelope head of every request payload: the id the reply echoes.
struct RequestHead {
  uint64_t request_id = 0;
};

/// Envelope head of every reply payload: the echoed id and the call's
/// status. A decoded head always holds a code within StatusCode.
struct ReplyHead {
  uint64_t request_id = 0;
  uint32_t code = 0;  // StatusCode
  std::string message;

  Status ToStatus() const {
    return Status(static_cast<StatusCode>(code), message);
  }
};

struct WireResponse;
struct WireShardRetrieveResponse;
struct WireShardScoreResponse;
struct WireQueryLookupResponse;
struct WireHealthResponse;

/// One query over the wire. Either `by_index` (resolve against the
/// server's dataset — the common scripting path) or an explicit Query
/// (ultra_class is carried for bookkeeping but seeds drive expansion).
struct WireRequest : RequestHead {
  static constexpr FrameKind kKind = FrameKind::kExpandRequest;
  using Reply = WireResponse;
  std::string method;      // "retexpan", "genexpan", ... (service.h)
  uint32_t k = 20;         // ranking length
  uint32_t timeout_ms = 0; // 0 = server default (UW_SERVE_TIMEOUT_MS)
  bool by_index = true;
  uint32_t query_index = 0;
  Query query;             // used when !by_index
};

/// The ranked entity ids, best first (empty unless the status is OK).
struct WireResponse : ReplyHead {
  static constexpr FrameKind kKind = FrameKind::kExpandResponse;
  std::vector<EntityId> ranking;
};

/// One candidate of a shard's recall (RetExpan::RecallEntities). Scores
/// travel as IEEE-754 bit patterns (PutF32), so the router's sort of the
/// joined replies reproduces the unsharded order bit for bit.
using ShardScoredEntity = RecalledEntity;

/// Scatter recall request: top-`size` of the shard's candidate slice by
/// positive-seed centroid score, seeds excluded.
struct WireShardRetrieveRequest : RequestHead {
  static constexpr FrameKind kKind = FrameKind::kShardRetrieveRequest;
  using Reply = WireShardRetrieveResponse;
  uint64_t size = 0;
  Query query;
};

struct WireShardRetrieveResponse : ReplyHead {
  static constexpr FrameKind kKind = FrameKind::kShardRetrieveResponse;
  std::vector<ShardScoredEntity> entities;
};

/// Scatter score request: negative-seed centroid scores for explicit ids
/// (the rerank phase sends one replica the whole merged list).
struct WireShardScoreRequest : RequestHead {
  static constexpr FrameKind kKind = FrameKind::kShardScoreRequest;
  using Reply = WireShardScoreResponse;
  std::vector<EntityId> ids;
  Query query;
};

/// `neg[i]` scores the i-th requested id. The positive side (the recall's
/// scores) never travels; a reply that still carries it fails closed.
struct WireShardScoreResponse : ReplyHead {
  static constexpr FrameKind kKind = FrameKind::kShardScoreResponse;
  std::vector<float> neg;
};

/// Resolves a dataset query index to its full Query so the router can
/// serve by-index requests without a resident pipeline.
struct WireQueryLookupRequest : RequestHead {
  static constexpr FrameKind kKind = FrameKind::kQueryLookupRequest;
  using Reply = WireQueryLookupResponse;
  uint32_t query_index = 0;
};

struct WireQueryLookupResponse : ReplyHead {
  static constexpr FrameKind kKind = FrameKind::kQueryLookupResponse;
  Query query;
};

/// A replica's load and serving state: the Health call's reply body.
struct HealthReport {
  uint64_t generation = 0;  // 0 = no generation installed
  bool draining = false;    // refusing new work (or nothing installed)
  uint32_t queue_depth = 0;
  uint32_t inflight = 0;
};

/// Health request: the envelope head only, no body.
struct WireHealthRequest : RequestHead {
  static constexpr FrameKind kKind = FrameKind::kHealthRequest;
  using Reply = WireHealthResponse;
};

struct WireHealthResponse : ReplyHead {
  static constexpr FrameKind kKind = FrameKind::kHealthResponse;
  HealthReport health;
};

/// The trace context carried in the frame header. The defaults frame a
/// request with no trace context.
struct FrameOptions {
  uint64_t trace_id = 0;
  uint32_t flags = 0;
};

/// Serializes `message` (envelope head, then body) and frames it as
/// `Message::kKind` (header + CRC32). Defined for the ten Wire* message
/// types above.
template <typename Message>
std::string EncodeFrame(const Message& message,
                        const FrameOptions& options = {});

/// Decodes a payload carried by a verified frame of `Message::kKind`.
/// Fails closed on truncation, trailing bytes, out-of-range fields and a
/// reply status code outside StatusCode.
template <typename Message>
Status DecodePayload(std::string_view payload, Message* message);

/// Two Expand codec aliases the benchmark's client still calls.
inline std::string EncodeRequestFrame(const WireRequest& request,
                                      const FrameOptions& options = {}) {
  return EncodeFrame(request, options);
}
inline Status DecodeResponsePayload(std::string_view payload,
                                    WireResponse* response) {
  return DecodePayload(payload, response);
}

/// A verified frame read off a socket: kind + raw payload bytes, plus
/// the trace context from its header.
struct Frame {
  FrameKind kind = FrameKind::kExpandRequest;
  std::string payload;
  uint64_t trace_id = 0;
  uint32_t flags = 0;
};

/// Blocking exact-size socket I/O. `ReadExact` returns kUnavailable with
/// message "eof" on a clean close before the first byte, kInternal on
/// short reads / errors. `WriteAll` sends with MSG_NOSIGNAL so a dead
/// peer surfaces as a Status, never SIGPIPE.
Status ReadExact(int fd, void* buffer, size_t bytes);
Status WriteAll(int fd, const void* buffer, size_t bytes);

/// Reads and verifies one frame (header sanity, length cap, CRC32).
StatusOr<Frame> ReadFrame(int fd);

/// Resolves `host`:`port` (IPv4) and connects a TCP socket, returning the
/// fd. A positive `timeout_ms` bounds connect, send and receive (so a hung
/// peer cannot wedge the caller); 0 leaves the socket fully blocking.
StatusOr<int> Dial(const std::string& host, int port, int timeout_ms = 0);

}  // namespace serve
}  // namespace ultrawiki

#endif  // ULTRAWIKI_SERVE_PROTOCOL_H_
