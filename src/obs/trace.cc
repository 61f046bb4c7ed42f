#include "obs/trace.h"

#include "common/env.h"
#include "obs/request_trace.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>

namespace ultrawiki {
namespace obs {
namespace {

/// -1 = not yet read from the environment.
std::atomic<int> g_trace_enabled{-1};

struct TraceNode {
  std::string name;
  TraceNode* parent = nullptr;
  int64_t count = 0;
  int64_t total_ns = 0;
  std::map<std::string, std::unique_ptr<TraceNode>> children;
};

/// One tree per thread. The mutex serializes this thread's span
/// enter/exit against snapshot merges from other threads; it is
/// uncontended on the hot path.
struct ThreadTrace {
  std::mutex mutex;
  TraceNode root;
  TraceNode* current = &root;
};

struct TraceRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadTrace>> threads;
};

TraceRegistry& Registry() {
  static TraceRegistry* registry = new TraceRegistry();
  return *registry;
}

/// The registry keeps a reference too, so a thread's recorded spans
/// survive the thread itself (pool threads can outlive a snapshot or
/// vice versa).
ThreadTrace& LocalTrace() {
  thread_local std::shared_ptr<ThreadTrace> trace = [] {
    auto created = std::make_shared<ThreadTrace>();
    TraceRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.threads.push_back(created);
    return created;
  }();
  return *trace;
}

TraceNode* ChildOf(TraceNode* parent, const std::string& name) {
  auto& slot = parent->children[name];
  if (slot == nullptr) {
    slot = std::make_unique<TraceNode>();
    slot->name = name;
    slot->parent = parent;
  }
  return slot.get();
}

void MergeInto(const TraceNode& source, ProfileNode& target) {
  target.count += source.count;
  target.total_ns += source.total_ns;
  for (const auto& [name, child] : source.children) {
    // Children are kept sorted by name; source maps are already ordered,
    // so this insert is append-or-find.
    auto it = std::lower_bound(
        target.children.begin(), target.children.end(), name,
        [](const ProfileNode& node, const std::string& key) {
          return node.name < key;
        });
    if (it == target.children.end() || it->name != name) {
      it = target.children.insert(it, ProfileNode{});
      it->name = name;
    }
    MergeInto(*child, *it);
  }
}

}  // namespace

bool TraceEnabled() {
  int state = g_trace_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    const int parsed = EnvFlag("UW_TRACE") ? 1 : 0;
    int expected = -1;
    g_trace_enabled.compare_exchange_strong(expected, parsed,
                                            std::memory_order_relaxed);
    state = g_trace_enabled.load(std::memory_order_relaxed);
  }
  return state > 0;
}

void SetTraceEnabled(bool enabled) {
  g_trace_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

Span::Span(const char* name) {
  if (RequestTrace* request = ActiveRequestTrace()) {
    request_trace_ = request;
    request_handle_ = request->BeginSpan(name);
  }
  if (!TraceEnabled()) return;
  ThreadTrace& trace = LocalTrace();
  {
    std::lock_guard<std::mutex> lock(trace.mutex);
    trace.current = ChildOf(trace.current, name);
    node_ = trace.current;
  }
  active_ = true;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (request_trace_ != nullptr) {
    static_cast<RequestTrace*>(request_trace_)->EndSpan(request_handle_);
  }
  if (!active_) return;
  const int64_t elapsed_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count();
  ThreadTrace& trace = LocalTrace();
  std::lock_guard<std::mutex> lock(trace.mutex);
  TraceNode* node = static_cast<TraceNode*>(node_);
  node->count += 1;
  node->total_ns += elapsed_ns;
  // Unbalanced destruction order cannot happen (RAII), so current == node.
  trace.current = node->parent != nullptr ? node->parent : &trace.root;
}

std::vector<std::string> CurrentSpanPath() {
  if (!TraceEnabled()) return {};
  ThreadTrace& trace = LocalTrace();
  std::lock_guard<std::mutex> lock(trace.mutex);
  std::vector<std::string> path;
  for (TraceNode* node = trace.current; node != nullptr && node->parent != nullptr;
       node = node->parent) {
    path.push_back(node->name);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ScopedTaskParent::ScopedTaskParent(const std::vector<std::string>* path) {
  if (path == nullptr || path->empty() || !TraceEnabled()) return;
  ThreadTrace& trace = LocalTrace();
  std::lock_guard<std::mutex> lock(trace.mutex);
  saved_ = trace.current;
  TraceNode* node = &trace.root;
  for (const std::string& name : *path) node = ChildOf(node, name);
  trace.current = node;
  active_ = true;
}

ScopedTaskParent::~ScopedTaskParent() {
  if (!active_) return;
  ThreadTrace& trace = LocalTrace();
  std::lock_guard<std::mutex> lock(trace.mutex);
  trace.current = static_cast<TraceNode*>(saved_);
}

ProfileNode SnapshotProfile() {
  ProfileNode merged;
  merged.name = "root";
  TraceRegistry& registry = Registry();
  std::lock_guard<std::mutex> registry_lock(registry.mutex);
  for (const std::shared_ptr<ThreadTrace>& trace : registry.threads) {
    std::lock_guard<std::mutex> lock(trace->mutex);
    MergeInto(trace->root, merged);
  }
  // The synthetic root carries no measurements of its own.
  merged.count = 0;
  merged.total_ns = 0;
  return merged;
}

int64_t SelfNs(const ProfileNode& node) {
  int64_t children_total = 0;
  for (const ProfileNode& child : node.children) {
    children_total += child.total_ns;
  }
  return std::max<int64_t>(0, node.total_ns - children_total);
}

void ResetTraceForTest() {
  TraceRegistry& registry = Registry();
  std::lock_guard<std::mutex> registry_lock(registry.mutex);
  for (const std::shared_ptr<ThreadTrace>& trace : registry.threads) {
    std::lock_guard<std::mutex> lock(trace->mutex);
    trace->root.children.clear();
    trace->root.count = 0;
    trace->root.total_ns = 0;
    trace->current = &trace->root;
  }
}

}  // namespace obs
}  // namespace ultrawiki
