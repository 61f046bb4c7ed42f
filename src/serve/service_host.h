#ifndef ULTRAWIKI_SERVE_SERVICE_HOST_H_
#define ULTRAWIKI_SERVE_SERVICE_HOST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "serve/frontend.h"

namespace ultrawiki {
namespace serve {

/// Generation indirection for zero-downtime reload: the TCP/admin
/// front-ends hold a ServiceHost instead of an ExpansionService, and
/// every request pins the current generation (a shared_ptr) for exactly
/// its own duration. `Install` atomically flips new traffic onto a fresh
/// generation; the old one stays alive — and keeps admitting the requests
/// already pinned to it — until its last in-flight reference drops, at
/// which point its destructor drains and frees it (on whichever thread
/// dropped the reference). No request is ever shed because of a swap:
/// there is no instant at which an admitted request can observe a
/// draining service it was routed to.
class ServiceHost : public Frontend {
 public:
  /// One serving generation: an ExpansionService plus (optionally) the
  /// Pipeline and service it owns. `service` is always valid; the owning
  /// pointers are null for borrowed (test-managed) generations. Owned
  /// generations drain on destruction (~ExpansionService runs Drain).
  struct Generation {
    uint64_t id = 0;
    std::unique_ptr<Pipeline> pipeline;
    std::unique_ptr<ExpansionService> owned_service;
    ExpansionService* service = nullptr;
  };

  ServiceHost() = default;

  /// A generation owning its pipeline and service (the uw_serve path).
  /// `pipeline` may be null when the service references a pipeline with
  /// external lifetime.
  static std::shared_ptr<Generation> Own(
      std::unique_ptr<Pipeline> pipeline,
      std::unique_ptr<ExpansionService> service);

  /// A generation borrowing an externally-owned service (tests,
  /// bench harnesses). The caller keeps ownership and drain duties.
  static std::shared_ptr<Generation> Borrow(ExpansionService& service);

  /// Atomically flips new traffic onto `generation` and returns its
  /// assigned id (monotonic from 1). The previous generation is released:
  /// it serves its pinned in-flight requests and is drained/destroyed
  /// when the last reference drops.
  uint64_t Install(std::shared_ptr<Generation> generation);

  /// The generation new requests are routed to (null before the first
  /// Install).
  std::shared_ptr<Generation> Current() const;

  /// Id of the current generation (0 before the first Install).
  uint64_t generation_id() const;

  /// The health poll's values for `generation`: its id, draining flag,
  /// queue depth and in-flight count. Null (nothing installed) reports
  /// draining with generation 0.
  static HealthReport HealthOf(const Generation* generation);

  /// Completed swaps (Installs beyond the first).
  int64_t swaps() const { return swaps_.load(std::memory_order_relaxed); }

  // --- Frontend: every call pins Current() for its own duration. ---
  ExpandResult Expand(ExpandRequest request) override;
  StatusOr<Query> QueryByIndex(uint32_t index) override;
  StatusOr<std::vector<ShardScoredEntity>> ScatterRetrieve(
      const Query& query, size_t size) override;
  StatusOr<std::vector<float>> ScatterScore(
      const Query& query, const std::vector<EntityId>& ids) override;
  /// HealthOf(Current()).
  StatusOr<HealthReport> Health() override;
  void Drain() override;

 private:
  mutable std::mutex mutex_;  // guards current_ and next_id_
  std::shared_ptr<Generation> current_;
  uint64_t next_id_ = 1;
  std::atomic<int64_t> swaps_{-1};  // first Install is not a swap
};

}  // namespace serve
}  // namespace ultrawiki

#endif  // ULTRAWIKI_SERVE_SERVICE_HOST_H_
