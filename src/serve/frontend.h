#ifndef ULTRAWIKI_SERVE_FRONTEND_H_
#define ULTRAWIKI_SERVE_FRONTEND_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"
#include "serve/service.h"

namespace ultrawiki {
namespace serve {

/// What a TCP front-end (serve/server.h) serves: the request plane
/// (Expand + by-index resolution) and the scatter plane the cluster
/// router fans out over. Implemented by ServiceHost (single process or
/// shard: forwards to the current ExpansionService generation) and by
/// ClusterRouter (scatter-gathers over shard processes). All methods are
/// called concurrently from handler threads and must be thread-safe.
class Frontend {
 public:
  virtual ~Frontend() = default;

  virtual ExpandResult Expand(ExpandRequest request) = 0;
  virtual StatusOr<Query> QueryByIndex(uint32_t index) = 0;
  /// The scatter plane (slice recall, negative-seed scores). Only shards
  /// (ServiceHost) answer it; any other frontend keeps kUnimplemented.
  virtual StatusOr<std::vector<RecalledEntity>> ScatterRetrieve(
      const Query& /*query*/, size_t /*size*/) {
    return Status::Unimplemented("not a shard");
  }
  virtual StatusOr<std::vector<float>> ScatterScore(
      const Query& /*query*/, const std::vector<EntityId>& /*ids*/) {
    return Status::Unimplemented("not a shard");
  }
  /// Load and serving state for the router's health poll. Reads counters
  /// only, never a slot, so it answers while every slot is busy. The
  /// default (the router front) reports all zeros.
  virtual StatusOr<HealthReport> Health() { return HealthReport{}; }
  /// Graceful-drain hook, run by TcpServer::Shutdown after every handler
  /// has exited. Must be idempotent.
  virtual void Drain() = 0;
};

}  // namespace serve
}  // namespace ultrawiki

#endif  // ULTRAWIKI_SERVE_FRONTEND_H_
