#include "serve/service_host.h"

#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace ultrawiki {
namespace serve {

std::shared_ptr<ServiceHost::Generation> ServiceHost::Own(
    std::unique_ptr<Pipeline> pipeline,
    std::unique_ptr<ExpansionService> service) {
  UW_CHECK_NE(service.get(), nullptr);
  auto generation = std::make_shared<Generation>();
  generation->pipeline = std::move(pipeline);
  generation->owned_service = std::move(service);
  generation->service = generation->owned_service.get();
  return generation;
}

std::shared_ptr<ServiceHost::Generation> ServiceHost::Borrow(
    ExpansionService& service) {
  auto generation = std::make_shared<Generation>();
  generation->service = &service;
  return generation;
}

uint64_t ServiceHost::Install(std::shared_ptr<Generation> generation) {
  UW_CHECK_NE(generation.get(), nullptr);
  UW_CHECK_NE(generation->service, nullptr);
  std::shared_ptr<Generation> previous;
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    generation->id = id;
    previous = std::move(current_);
    current_ = std::move(generation);
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  obs::GetGauge("serve.generation").Set(static_cast<int64_t>(id));
  // `previous` drops here (or on the last in-flight handler's thread if
  // one still pins it). An owned generation drains in ~ExpansionService,
  // so every request it admitted completes before it is freed — the swap
  // itself sheds nothing.
  return id;
}

std::shared_ptr<ServiceHost::Generation> ServiceHost::Current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

uint64_t ServiceHost::generation_id() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_ != nullptr ? current_->id : 0;
}

ExpandResult ServiceHost::Expand(ExpandRequest request) {
  const std::shared_ptr<Generation> generation = Current();
  if (generation == nullptr) {
    return ExpandResult{Status::Unavailable("no generation installed"), {}};
  }
  return generation->service->Expand(std::move(request));
}

StatusOr<Query> ServiceHost::QueryByIndex(uint32_t index) {
  const std::shared_ptr<Generation> generation = Current();
  if (generation == nullptr) {
    return Status::Unavailable("no generation installed");
  }
  return generation->service->QueryByIndex(index);
}

StatusOr<std::vector<RecalledEntity>> ServiceHost::ScatterRetrieve(
    const Query& query, size_t size) {
  const std::shared_ptr<Generation> generation = Current();
  if (generation == nullptr) {
    return Status::Unavailable("no generation installed");
  }
  return generation->service->ScatterRetrieve(query, size);
}

StatusOr<std::vector<float>> ServiceHost::ScatterScore(
    const Query& query, const std::vector<EntityId>& ids) {
  const std::shared_ptr<Generation> generation = Current();
  if (generation == nullptr) {
    return Status::Unavailable("no generation installed");
  }
  return generation->service->ScatterScore(query, ids);
}

HealthReport ServiceHost::HealthOf(const Generation* generation) {
  if (generation == nullptr) return HealthReport{0, true, 0, 0};
  const ExpansionService& service = *generation->service;
  return HealthReport{generation->id, service.draining(),
                      static_cast<uint32_t>(service.queue_depth()),
                      static_cast<uint32_t>(service.inflight())};
}

StatusOr<HealthReport> ServiceHost::Health() {
  return HealthOf(Current().get());
}

void ServiceHost::Drain() {
  const std::shared_ptr<Generation> generation = Current();
  if (generation != nullptr) generation->service->Drain();
}

}  // namespace serve
}  // namespace ultrawiki
