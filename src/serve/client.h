#ifndef ULTRAWIKI_SERVE_CLIENT_H_
#define ULTRAWIKI_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"

namespace ultrawiki {
namespace serve {

/// Synchronous client for the framed TCP protocol: one connection, one
/// request in flight (the server runs requests from different
/// connections at once, so load generators open one client per
/// concurrent stream). Movable, not copyable; the destructor closes the
/// socket. A call that fails before a well-formed reply arrives closes the
/// connection (the stream may be out of step); a non-OK reply status
/// leaves it open. So after a failed call, `connected()` tells a peer
/// that answered from a transport fault.
class ServeClient {
 public:
  /// A positive `timeout_ms` bounds connect, send and receive (Dial).
  static StatusOr<ServeClient> Connect(const std::string& host, int port,
                                       int timeout_ms = 0);

  ServeClient() = default;
  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&& other) noexcept;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ~ServeClient();

  bool connected() const { return fd_ >= 0; }

  /// The server's load and serving state (the router's health poll).
  StatusOr<HealthReport> Health();

  /// Expands the server-side query at `query_index`. `timeout_ms` 0 means
  /// the server default. Non-OK server statuses (shed, timeout, bad
  /// method, bad index) come back as the corresponding Status.
  StatusOr<std::vector<EntityId>> ExpandByIndex(const std::string& method,
                                                uint32_t query_index, int k,
                                                int timeout_ms = 0);

  /// Expands an explicit query (seed ids must be meaningful to the
  /// server's resident world).
  StatusOr<std::vector<EntityId>> ExpandQuery(const std::string& method,
                                              const Query& query, int k,
                                              int timeout_ms = 0);

  /// Scatter plane (cluster serving): the recall stage of the connected
  /// shard — its top-`size` candidate-slice entities by positive-seed
  /// centroid score, with global positions for the router-side merge.
  StatusOr<std::vector<RecalledEntity>> ScatterRetrieve(const Query& query,
                                                        uint64_t size);

  /// Scatter plane: negative-seed centroid scores for explicit ids (the
  /// router's rerank phase); a count mismatch fails kInternal.
  StatusOr<std::vector<float>> ScatterScore(const Query& query,
                                            const std::vector<EntityId>& ids);

  /// Resolves a dataset query index against the server's resident
  /// dataset (the router serves by-index requests through this).
  StatusOr<Query> QueryLookup(uint32_t query_index);

  /// Closes the connection early (destructor does this too).
  void Close();

  /// When set, every subsequent request carries the sample flag in its
  /// frame header, asking the server to trace it end to end regardless of
  /// the server's sampling rate (slow-query log + admin /slow).
  void set_force_trace(bool on) { force_trace_ = on; }
  bool force_trace() const { return force_trace_; }

  /// Trace id of the most recently sent request (0 before the first) —
  /// what to look for in the server's slow-query log.
  uint64_t last_trace_id() const { return last_trace_id_; }

 private:
  /// The one round trip of every call: stamps the next request id, sends
  /// `request`, checks the reply's kind and echoed id (closing the
  /// connection when any of that fails), turns a non-OK reply code into
  /// its Status, and otherwise returns the reply's `body`.
  template <typename Request, typename Reply, typename Body>
  StatusOr<Body> Call(Request request, Body Reply::*body);
  FrameOptions MakeFrameOptions(uint64_t request_id);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  bool force_trace_ = false;
  uint64_t last_trace_id_ = 0;
};

}  // namespace serve
}  // namespace ultrawiki

#endif  // ULTRAWIKI_SERVE_CLIENT_H_
