#include "harness.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/thread_pool.h"

extern char** environ;

namespace uwbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// --- Samples -------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Pct(double q) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(index, values_.size() - 1)];
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- Result --------------------------------------------------------------

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

bool Result::Has(const std::string& name) const {
  return metrics_.count(name) > 0;
}

void Result::Count(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Result::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "[uw_bench] CHECK FAILED: %s\n", why.c_str());
}

void Result::Layer(const std::string& name, const Samples& self_us,
                   double share, const std::string& work) {
  rows_.push_back(
      Row{name, self_us.size(), self_us.Pct(0.5), self_us.Pct(0.99), share,
          work});
}

void Result::PrintLayerTable() const {
  std::fprintf(stderr, "\n%-30s %8s %12s %12s %8s  %s\n", "layer", "n",
               "self_p50_us", "self_p99_us", "share", "work/query");
  for (const Row& row : rows_) {
    std::fprintf(stderr, "%-30s %8zu %12.1f %12.1f %7.1f%%  %s\n",
                 row.name.c_str(), row.n, row.p50, row.p99,
                 100.0 * row.share, row.work.c_str());
  }
  std::fprintf(stderr, "\n");
}

std::string Result::UnitOf(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? "" : it->second.unit;
}

double Result::ValueOf(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.value;
}

std::string Result::Json(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted_));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const std::string& name : names) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    const Metric& metric = it->second;
    if (!first) out += ", ";
    first = false;
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(number, sizeof(number), "%.10g", value);
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

// --- Fingerprint ----------------------------------------------------------

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

Fingerprint::Fingerprint(const Options& options) {
  const char* threads = std::getenv("UW_THREADS");
  base_ = "\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
          ", \"cpu\": " + JsonString(CpuModel()) +
          ", \"compiler\": " + JsonString(__VERSION__) +
          ", \"cxx_flags\": " + JsonString(UWB_CXX_FLAGS) +
          ", \"build_type\": " + JsonString(UWB_BUILD_TYPE) +
          ", \"UW_THREADS\": " +
          JsonString(threads != nullptr ? threads : "unset") +
          ", \"bench_pool_lanes\": " +
          std::to_string(ultrawiki::ThreadPool::Global().thread_count()) +
          ", \"workload\": " + JsonString(options.workload) +
          ", \"scale\": " + JsonString(options.scale) +
          ", \"seed\": " + std::to_string(options.seed);
}

void Fingerprint::AddServer(const std::string& role,
                            const std::string& statusz,
                            const std::map<std::string, std::string>& env) {
  std::string entry = "{\"role\": " + JsonString(role) + ", \"env\": {";
  bool first = true;
  for (const auto& [key, value] : env) {
    if (key.rfind("UW_", 0) != 0 || key.find("_FILE") != std::string::npos ||
        key.find("PATH") != std::string::npos) {
      continue;
    }
    if (!first) entry += ", ";
    first = false;
    entry += JsonString(key) + ": " + JsonString(value);
  }
  entry += "}, \"statusz\": ";
  entry += statusz.empty() ? "null" : statusz;
  entry += "}";
  servers_.push_back(entry);
}

std::string Fingerprint::Json() const {
  std::string out = "{" + base_ + ", \"servers\": [";
  for (size_t i = 0; i < servers_.size(); ++i) {
    if (i > 0) out += ", ";
    out += servers_[i];
  }
  return out + "]}";
}

double StreamTriadGbps() {
  constexpr size_t kElements = (32u << 20) / sizeof(double);
  std::vector<double> a(kElements, 0.0), b(kElements, 1.0), c(kElements, 2.0);
  const double scalar = 3.0;
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (size_t i = 0; i < kElements; ++i) pa[i] = pb[i] + scalar * pc[i];
    const double seconds = SecondsSince(start);
    // Keep the stores observable.
    if (a[rep] != 7.0) std::fprintf(stderr, "[uw_bench] stream mismatch\n");
    best = std::max(best, 3.0 * sizeof(double) * kElements / seconds / 1e9);
  }
  return best;
}

// --- Child processes ------------------------------------------------------

Child::Child(Child&& other) noexcept : pid_(other.pid_) { other.pid_ = -1; }

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    Stop(0);
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

Child::~Child() { Stop(0); }

StatusOr<Child> Child::Spawn(const std::vector<std::string>& argv,
                             const std::map<std::string, std::string>& env,
                             const std::string& log_path) {
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::string key = entry.substr(0, entry.find('='));
    if (env.count(key) == 0) env_strings.push_back(entry);
  }
  for (const auto& [key, value] : env) env_strings.push_back(key + "=" + value);
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> args = argv;
  std::vector<char*> argp;
  for (std::string& s : args) argp.push_back(s.data());
  argp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, argp[0], &actions, nullptr, argp.data(),
                             envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    return Status::Internal("spawn " + argv[0] + ": " + std::strerror(rc));
  }
  Child child;
  child.pid_ = pid;
  return child;
}

double Child::PeakRssMb() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

void Child::Signal(int signum) const {
  if (pid_ > 0) ::kill(pid_, signum);
}

void Child::Stop(int grace_ms) {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
  int status = 0;
  while (true) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || done < 0) break;
    if (Clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

int WaitForPortFile(const std::string& path, const Child& child,
                    int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    const std::string text = ReadFile(path);
    if (!text.empty() && text.back() == '\n') return std::atoi(text.c_str());
    int status = 0;
    if (::waitpid(child.pid(), &status, WNOHANG) == child.pid()) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return 0;
}

// --- Admin endpoint readers -----------------------------------------------

StatusOr<std::string> HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Unavailable("connect admin port " + std::to_string(port));
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return Status::Internal("send");
  }
  std::string response;
  char buffer[65536];
  while (true) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    response.append(buffer, static_cast<size_t>(got));
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) return Status::Internal("bad HTTP reply");
  return response.substr(body + 4);
}

double PromValue(const std::string& body, const std::string& name) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::atof(line.c_str() + name.size() + 1);
    }
  }
  return 0;
}

namespace {

// Integer after `"key":` at or after `from` (0 when absent).
int64_t IntAfter(const std::string& s, const std::string& key, size_t from,
                 size_t* end = nullptr) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = s.find(needle, from);
  if (at == std::string::npos) return 0;
  const size_t start = at + needle.size();
  if (end != nullptr) *end = start;
  return std::strtoll(s.c_str() + start, nullptr, 10);
}

}  // namespace

std::vector<ServerTrace> ParseSlowz(const std::string& body) {
  std::vector<ServerTrace> traces;
  const std::string marker = "{\"trace_id\":";
  size_t at = body.find(marker);
  while (at != std::string::npos) {
    const size_t next = body.find(marker, at + marker.size());
    const std::string object =
        body.substr(at, next == std::string::npos ? std::string::npos
                                                  : next - at);
    ServerTrace trace;
    trace.trace_id =
        static_cast<uint64_t>(std::strtoull(object.c_str() + marker.size(),
                                            nullptr, 10));
    trace.total_us = IntAfter(object, "total_us", 0);
    const std::string event = "{\"name\":\"";
    for (size_t e = object.find(event); e != std::string::npos;
         e = object.find(event, e + event.size())) {
      const size_t name_start = e + event.size();
      const std::string name =
          object.substr(name_start, object.find('"', name_start) - name_start);
      trace.stage_us[name] += IntAfter(object, "dur_us", name_start);
    }
    traces.push_back(std::move(trace));
    at = next;
  }
  return traces;
}

int64_t ProfileTotalNs(const std::string& profile_json,
                       const std::string& name) {
  int64_t total_ns = 0;
  const std::string needle = "{\"name\":\"" + name + "\",";
  for (size_t at = profile_json.find(needle); at != std::string::npos;
       at = profile_json.find(needle, at + needle.size())) {
    total_ns += IntAfter(profile_json, "total_ns", at);
  }
  return total_ns;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void RemoveTree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

void MakeDirs(const std::string& path) {
  std::error_code ignored;
  std::filesystem::create_directories(path, ignored);
}

std::vector<EntityId> Sample(std::mt19937_64& rng,
                             const std::vector<EntityId>& pool, int count) {
  std::vector<EntityId> copy = pool;
  const size_t n = std::min(copy.size(), static_cast<size_t>(count));
  for (size_t i = 0; i < n; ++i) {
    std::uniform_int_distribution<size_t> pick(i, copy.size() - 1);
    std::swap(copy[i], copy[pick(rng)]);
  }
  copy.resize(n);
  return copy;
}

// --- Checking ---------------------------------------------------------------

bool Checker::Check(const Request& request, const StatusOr<Ranking>& got) {
  const Ranking& reference = references_[request.ref];
  const size_t depth = std::min<size_t>(50, reference.size());
  recall_possible_.fetch_add(static_cast<int64_t>(depth),
                             std::memory_order_relaxed);
  if (!got.ok()) return false;
  Ranking answer = *got;
  const uint64_t n = checked_.fetch_add(1, std::memory_order_relaxed);
  if (corrupt_ && n % 64 == 63 && !answer.empty()) answer.front() += 1;
  Ranking top(answer.begin(),
              answer.begin() + static_cast<long>(std::min<size_t>(50, answer.size())));
  std::sort(top.begin(), top.end());
  int64_t hits = 0;
  for (size_t i = 0; i < depth; ++i) {
    if (std::binary_search(top.begin(), top.end(), reference[i])) ++hits;
  }
  recall_hits_.fetch_add(hits, std::memory_order_relaxed);
  return answer == reference;
}

double Checker::RecallAt50() const {
  const int64_t possible = recall_possible_.load(std::memory_order_relaxed);
  return possible > 0 ? static_cast<double>(
                            recall_hits_.load(std::memory_order_relaxed)) /
                            static_cast<double>(possible)
                      : 0;
}

uint64_t RankingDigest(const Ranking& ranking) {
  uint64_t hash = 1469598103934665603ull;
  for (const EntityId id : ranking) {
    uint64_t v = static_cast<uint64_t>(static_cast<int64_t>(id));
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

// --- Load engines -----------------------------------------------------------

Stream::Stream(const std::vector<Request>* requests, uint64_t seed,
               int lanes)
    : requests_(requests) {
  for (int lane = 0; lane < lanes; ++lane) {
    rngs_.emplace_back(seed * 1000003ull + static_cast<uint64_t>(lane) + 1);
  }
}

const Request& Stream::Next(int lane) {
  std::uniform_int_distribution<size_t> pick(0, requests_->size() - 1);
  return (*requests_)[pick(rngs_[static_cast<size_t>(lane)])];
}

namespace {


void Merge(Phase& into, const Phase& from) {
  into.latency_ms.Append(from.latency_ms);
  into.late_ms.Append(from.late_ms);
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.oldest_pending_ms =
      std::max(into.oldest_pending_ms, from.oldest_pending_ms);
}

/// Runs `body(lane)` for every lane concurrently, one thread per lane.
void RunLanes(int lanes, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  for (int i = 0; i < lanes; ++i) threads.emplace_back(body, i);
  for (auto& thread : threads) thread.join();
}

}  // namespace

Phase RunClosedLoop(const LaneFactory& factory, int lanes, Stream& stream,
                    Checker& checker, double seconds) {
  std::vector<std::unique_ptr<Lane>> opened;
  for (int i = 0; i < lanes; ++i) opened.push_back(factory());
  std::vector<Phase> per_lane(static_cast<size_t>(lanes));
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  RunLanes(lanes, [&](int i) {
    Phase& phase = per_lane[static_cast<size_t>(i)];
    Lane& lane = *opened[static_cast<size_t>(i)];
    // A short random pause before each request keeps the lanes from
    // locking into step with the server's batch timer, which otherwise
    // settles each run into one of two latency modes.
    std::mt19937_64 rng(static_cast<uint64_t>(i) * 7 + 1);
    std::uniform_int_distribution<int> pause_us(0, 200);
    while (Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(pause_us(rng)));
      const Request& request = stream.Next(i);
      const auto sent = Clock::now();
      const StatusOr<Ranking> got = lane.Call(request);
      phase.latency_ms.Add(MsBetween(sent, Clock::now()));
      ++phase.attempted;
      if (!checker.Check(request, got)) ++phase.failed;
    }
  });
  Phase total;
  for (const Phase& phase : per_lane) Merge(total, phase);
  total.seconds = SecondsSince(start);
  return total;
}

Phase RunOpenLoop(const LaneFactory& factory, int lanes, Stream& stream,
                  Checker& checker, double rate, double seconds,
                  uint64_t seed) {
  std::vector<std::unique_ptr<Lane>> opened;
  for (int i = 0; i < lanes; ++i) opened.push_back(factory());
  // Pre-drawn due times: each lane is a Poisson stream of rate/lanes, so
  // together they are one Poisson stream of `rate`.
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  std::vector<std::vector<Clock::time_point>> dues(static_cast<size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    std::mt19937_64 rng(seed * 7919ull + static_cast<uint64_t>(i));
    std::exponential_distribution<double> gap(rate / lanes);
    double t = gap(rng);
    while (t < seconds) {
      dues[static_cast<size_t>(i)].push_back(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(t)));
      t += gap(rng);
    }
  }
  // Replies still missing this long after the window count as failed.
  const auto give_up = start + window + std::chrono::seconds(5);

  // A request still unanswered when the window closes has been pending
  // since its due time; the oldest such age tells a growing backlog.
  const Clock::time_point window_end = start + window;
  const auto note_done = [window_end](Phase& phase, Clock::time_point when,
                                      Clock::time_point done) {
    phase.latency_ms.Add(MsBetween(when, done));
    if (done > window_end && when < window_end) {
      phase.oldest_pending_ms =
          std::max(phase.oldest_pending_ms, MsBetween(when, window_end));
    }
  };
  std::vector<Phase> per_lane(static_cast<size_t>(lanes));
  RunLanes(lanes, [&](int i) {
    Phase& phase = per_lane[static_cast<size_t>(i)];
    Lane& lane = *opened[static_cast<size_t>(i)];
    const std::vector<Clock::time_point>& due = dues[static_cast<size_t>(i)];
    if (lane.fd() < 0) {
      // Synchronous lane: requests run in order; a slow one delays the
      // next, and timing from the due time charges that wait.
      for (const Clock::time_point when : due) {
        std::this_thread::sleep_until(when);
        const Request& request = stream.Next(i);
        phase.late_ms.Add(MsBetween(when, Clock::now()));
        const StatusOr<Ranking> got = lane.Call(request);
        note_done(phase, when, Clock::now());
        ++phase.attempted;
        if (!checker.Check(request, got)) ++phase.failed;
      }
      return;
    }
    // Pipelined lane: send at due time, read replies as they arrive.
    std::deque<std::pair<Clock::time_point, const Request*>> outstanding;
    size_t next = 0;
    while (next < due.size() || !outstanding.empty()) {
      auto now = Clock::now();
      if (next < due.size() && now >= due[next]) {
        const Request& request = stream.Next(i);
        phase.late_ms.Add(MsBetween(due[next], now));
        ++phase.attempted;
        const Status sent = lane.Send(request);
        if (!sent.ok()) {
          ++phase.failed;
        } else {
          outstanding.emplace_back(due[next], &request);
        }
        ++next;
        continue;
      }
      if (now >= give_up) {
        phase.failed += static_cast<int64_t>(outstanding.size());
        break;
      }
      const auto wake = next < due.size() ? due[next] : give_up;
      const auto wait = std::max<Clock::duration>(
          Clock::duration::zero(), wake - now);
      const int64_t wait_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                       static_cast<long>(wait_ns % 1000000000)};
      pollfd pfd{lane.fd(), POLLIN, 0};
      const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
      bool broken = false;
      if (ready > 0 && !outstanding.empty()) {
        const StatusOr<Ranking> got = lane.Receive();
        const auto [when, request] = outstanding.front();
        outstanding.pop_front();
        note_done(phase, when, Clock::now());
        if (!checker.Check(*request, got)) ++phase.failed;
        if (!got.ok() && got.status().code() ==
                             ultrawiki::StatusCode::kInternal) {
          broken = true;
        }
      } else if (ready > 0) {
        broken = true;  // readable with nothing outstanding: peer closed
      }
      if (broken) {
        // Transport broke: everything in flight or still due is lost.
        const int64_t unsent = static_cast<int64_t>(due.size() - next);
        phase.attempted += unsent;
        phase.failed += unsent + static_cast<int64_t>(outstanding.size());
        break;
      }
    }
  });
  Phase total;
  for (const Phase& phase : per_lane) Merge(total, phase);
  total.seconds = seconds;
  return total;
}

bool MeetsLimit(const Phase& phase, const LoadSpec& spec) {
  if (phase.failed > 0 || phase.attempted == 0) return false;
  if (phase.latency_ms.Pct(0.99) > spec.p99_limit_ms) return false;
  return phase.oldest_pending_ms <= spec.p99_limit_ms;
}

namespace {

/// A phase run as several equal slices, interleaved with other phases.
/// Throughput and p50 are medians over the slices, so one slice disturbed
/// by the host shifts neither; p99 pools every slice's samples, since a
/// slice alone holds too few for it.
struct Sliced {
  std::vector<double> qps, p50;
  Phase pooled;
  double Qps() const { return Median(qps); }
  double P50() const { return Median(p50); }
  double P99() const { return pooled.latency_ms.Pct(0.99); }
};

void AddSlice(Sliced& sliced, const Phase& phase, Result& result) {
  result.Count(phase.attempted, phase.failed);
  sliced.qps.push_back(phase.qps());
  sliced.p50.push_back(phase.latency_ms.Pct(0.5));
  Merge(sliced.pooled, phase);
}

}  // namespace

void MeasureServing(const LaneFactory& factory, const LoadSpec& spec,
                    const std::vector<Request>& requests, Checker& checker,
                    const Options& options, Result& result) {
  constexpr int kSlices = 3;
  Stream stream(&requests, options.seed, spec.lanes);
  const double budget = options.seconds;

  // Closed loop (throughput, per-request latency) and the two fixed
  // open-loop rates, interleaved slice by slice so that a slow spell of
  // the host lands in one slice of each rather than in all of one.
  Sliced closed, low, high;
  for (int s = 0; s < kSlices; ++s) {
    AddSlice(closed,
             RunClosedLoop(factory, spec.lanes, stream, checker,
                           0.15 * budget / kSlices),
             result);
    AddSlice(low,
             RunOpenLoop(factory, spec.lanes, stream, checker, spec.low_rps,
                         0.35 * budget / kSlices, options.seed * 977 + s),
             result);
    AddSlice(high,
             RunOpenLoop(factory, spec.lanes, stream, checker, spec.high_rps,
                         0.25 * budget / kSlices, options.seed * 983 + s),
             result);
  }
  result.Set("qps", closed.Qps(), "1/s");
  result.Set("p50_ms", closed.P50(), "ms");
  result.Set("p99_ms", closed.P99(), "ms");
  std::fprintf(stderr,
               "[uw_bench] closed loop: %d lanes, %zu requests -> %.1f qps, "
               "p50 %.3f ms p99 %.3f ms\n",
               spec.lanes, closed.pooled.latency_ms.size(), closed.Qps(),
               closed.P50(), closed.P99());
  const struct {
    const char* tag;
    double rate;
    const Sliced& sliced;
  } levels[] = {{"low", spec.low_rps, low}, {"high", spec.high_rps, high}};
  for (const auto& level : levels) {
    const std::string tag = level.tag;
    result.Set("p50_ms." + tag, level.sliced.P50(), "ms");
    result.Set("p99_ms." + tag, level.sliced.P99(), "ms");
    std::fprintf(stderr,
                 "[uw_bench] open loop %s: %.0f/s offered, p50 %.3f ms p99 "
                 "%.3f ms (n=%zu), generator late p99 %.3f ms\n",
                 level.tag, level.rate, level.sliced.P50(), level.sliced.P99(),
                 level.sliced.pooled.latency_ms.size(),
                 level.sliced.pooled.late_ms.Pct(0.99));
  }

  // Goodput: the two fixed rates are the ladder's first rungs; above
  // them the offered rate grows by 1.33x per step until one misses the
  // limit (twice in a row, so one disturbed step does not end the walk).
  // The p99 = limit crossing is then interpolated between the last rate
  // that met the limit and the one that missed.
  const bool low_ok = MeetsLimit(low.pooled, spec);
  const bool high_ok = MeetsLimit(high.pooled, spec);
  double met_rate = low_ok ? spec.low_rps : 0;
  double met_p99 = low_ok ? low.P99() : 0;
  double missed_rate = low_ok ? spec.high_rps : spec.low_rps;
  double missed_p99 = low_ok ? high.P99() : low.P99();
  if (low_ok && high_ok) {
    met_rate = spec.high_rps;
    met_p99 = high.P99();
    constexpr int kMaxSteps = 6;
    const double step_seconds = 0.25 * budget / 3;
    double rate = spec.high_rps;
    bool retried = false;
    missed_rate = 0;
    for (int step = 0; step < kMaxSteps; ++step) {
      if (!retried) rate *= 1.33;
      const Phase phase =
          RunOpenLoop(factory, spec.lanes, stream, checker, rate, step_seconds,
                      options.seed * 131 + step);
      result.Count(phase.attempted, phase.failed);
      const double p99 = phase.latency_ms.Pct(0.99);
      const bool ok = MeetsLimit(phase, spec);
      std::fprintf(stderr,
                   "[uw_bench] goodput step %d: %.0f/s -> p99 %.3f ms "
                   "(n=%zu), oldest pending at window end %.3f ms: %s\n",
                   step, rate, p99, phase.latency_ms.size(),
                   phase.oldest_pending_ms, ok ? "meets limit" : "over limit");
      if (ok) {
        met_rate = rate;
        met_p99 = p99;
        retried = false;
      } else if (!retried) {
        retried = true;
      } else {
        missed_rate = rate;
        missed_p99 = p99;
        break;
      }
    }
  }
  double goodput = met_rate;
  if (missed_rate > met_rate) {
    const double over = std::max(missed_p99, spec.p99_limit_ms);
    const double frac =
        over > met_p99 ? (spec.p99_limit_ms - met_p99) / (over - met_p99) : 0;
    goodput += std::clamp(frac, 0.0, 1.0) * (missed_rate - met_rate);
  }
  result.Set("goodput_rps", goodput, "1/s");
}

}  // namespace uwbench
