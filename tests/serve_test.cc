// Tests for the online expansion service (src/serve/): wire-protocol
// framing (round trips + the corruption matrix), the call envelope of
// every frame kind (golden bytes, round trips, fail-closed decoding),
// serving determinism — a request's ranking must be bit-identical whether
// it is served alone or beside any mix of other requests, at any thread
// count — execution slots (an idle slot takes an arrival while another
// runs; a build waits for running requests), deadline expiry, overload
// shedding of requests and scatter calls with correct accepted results,
// the TCP loopback path end to end (a shed reply keeps the client
// connected, a broken stream closes it), and the Health call, which
// answers while every slot is busy.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <latch>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "serve/admin.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/service_host.h"

namespace ultrawiki {
namespace serve {
namespace {

/// One Tiny pipeline per test process (the usual expensive-fixture
/// pattern of this suite; see tests/CMakeLists.txt).
Pipeline& TestPipeline() {
  static Pipeline* pipeline = [] {
    PipelineConfig config = PipelineConfig::Tiny();
    config.generator.scale = 0.08;
    config.dataset.ultra_class_scale = 0.08;
    return new Pipeline(Pipeline::Build(config));
  }();
  return *pipeline;
}

/// Serves `request` on a thread of its own, as a TCP connection handler
/// would.
std::future<ExpandResult> ExpandOnThread(ExpansionService& service,
                                         ExpandRequest request) {
  return std::async(std::launch::async,
                    [&service, request = std::move(request)]() mutable {
                      return service.Expand(std::move(request));
                    });
}

/// Waits up to 2 s for `service` to have `n` calls admitted.
void AwaitInflight(const ExpansionService& service, int n) {
  for (int spin = 0; spin < 2000 && service.inflight() < n; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::vector<EntityId> Reference(const std::string& method,
                                const Query& query, int k) {
  auto expander = MakeExpanderByName(TestPipeline(), method);
  UW_CHECK(expander != nullptr);
  return expander->Expand(query, static_cast<size_t>(k));
}

// ----------------------------------------------------------- Protocol.

TEST(ServeProtocolTest, RequestFrameRoundTripsThroughASocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  WireRequest request;
  request.request_id = 77;
  request.method = "retexpan";
  request.k = 13;
  request.timeout_ms = 250;
  request.by_index = false;
  request.query.ultra_class = 3;
  request.query.pos_seeds = {1, 2, 5};
  request.query.neg_seeds = {9, 11};
  const std::string encoded = EncodeRequestFrame(request);
  ASSERT_TRUE(WriteAll(fds[0], encoded.data(), encoded.size()).ok());

  StatusOr<Frame> frame = ReadFrame(fds[1]);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->kind, FrameKind::kExpandRequest);
  WireRequest decoded;
  ASSERT_TRUE(DecodePayload(frame->payload, &decoded).ok());
  EXPECT_EQ(decoded.request_id, 77u);
  EXPECT_EQ(decoded.method, "retexpan");
  EXPECT_EQ(decoded.k, 13u);
  EXPECT_EQ(decoded.timeout_ms, 250u);
  EXPECT_FALSE(decoded.by_index);
  EXPECT_EQ(decoded.query.ultra_class, 3);
  EXPECT_EQ(decoded.query.pos_seeds, request.query.pos_seeds);
  EXPECT_EQ(decoded.query.neg_seeds, request.query.neg_seeds);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeProtocolTest, ResponsePayloadRoundTrips) {
  WireResponse response;
  response.request_id = 42;
  response.code = static_cast<uint32_t>(StatusCode::kDeadlineExceeded);
  response.message = "deadline expired before execution";
  response.ranking = {7, -1, 12};
  const std::string frame = EncodeFrame(response);
  // Slice the payload out of the framed bytes (header 32 bytes, CRC 4).
  ASSERT_GT(frame.size(), kFrameHeaderBytes + 4);
  const std::string_view payload(frame.data() + kFrameHeaderBytes,
                                 frame.size() - kFrameHeaderBytes - 4);
  WireResponse decoded;
  ASSERT_TRUE(DecodeResponsePayload(payload, &decoded).ok());
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.ToStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded.message, response.message);
  EXPECT_EQ(decoded.ranking, response.ranking);
}

TEST(ServeProtocolTest, CorruptionMatrixFailsClosed) {
  WireRequest request;
  request.method = "setexpan";
  const std::string good = EncodeRequestFrame(request);

  auto read_back = [](std::string bytes) {
    int fds[2];
    UW_CHECK_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    UW_CHECK(WriteAll(fds[0], bytes.data(), bytes.size()).ok());
    ::shutdown(fds[0], SHUT_WR);
    StatusOr<Frame> frame = ReadFrame(fds[1]);
    ::close(fds[0]);
    ::close(fds[1]);
    return frame.status();
  };

  // Pristine bytes parse.
  EXPECT_TRUE(read_back(good).ok());
  // A flipped payload byte breaks the checksum.
  {
    std::string bad = good;
    bad[kFrameHeaderBytes] ^= 0x40;
    const Status status = read_back(bad);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("checksum"), std::string::npos);
  }
  // A flipped magic byte is rejected before anything else.
  {
    std::string bad = good;
    bad[0] ^= 0xff;
    EXPECT_NE(read_back(bad).message().find("magic"), std::string::npos);
  }
  // Truncation mid-payload is a hard error, not an EOF.
  {
    const Status status = read_back(good.substr(0, good.size() - 6));
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInternal);
  }
  // A hostile length field is capped before allocation.
  {
    std::string bad = good;
    bad[12] = '\xff';
    bad[13] = '\xff';
    bad[14] = '\xff';
    bad[15] = '\xff';
    const Status status = read_back(bad);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("too large"), std::string::npos);
  }
  // Clean EOF before the first byte is the distinguished "eof" status.
  EXPECT_EQ(read_back("").message(), "eof");
}

/// Overwrites the little-endian u32 at `offset` of `frame` (an encoding
/// without its CRC) and appends the recomputed CRC.
std::string PatchU32AndSeal(std::string frame, size_t offset,
                            uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    frame[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  const uint32_t crc = Crc32(frame);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  return frame;
}

/// Re-frames `frame` (a current-version encoding) under header version
/// `version`. Version 1 drops the trace-context bytes 20..31, as the
/// retired v1 layout did. The CRC is recomputed, so the version is the
/// only thing wrong with the result.
std::string Reframe(std::string frame, uint32_t version) {
  frame.resize(frame.size() - 4);
  if (version == 1) frame.erase(20, kFrameHeaderBytes - 20);
  return PatchU32AndSeal(std::move(frame), 4, version);
}

/// `frame` with its kind tag set to `kind` and a recomputed CRC, so the
/// kind is the only thing wrong with the result.
std::string WithKind(std::string frame, uint32_t kind) {
  frame.resize(frame.size() - 4);
  return PatchU32AndSeal(std::move(frame), 8, kind);
}

/// Reads one frame back from `bytes` written to a half-closed socket pair.
StatusOr<Frame> ReadBack(const std::string& bytes) {
  int fds[2];
  UW_CHECK_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  UW_CHECK(WriteAll(fds[0], bytes.data(), bytes.size()).ok());
  ::shutdown(fds[0], SHUT_WR);
  StatusOr<Frame> frame = ReadFrame(fds[1]);
  ::close(fds[0]);
  ::close(fds[1]);
  return frame;
}

TEST(ServeProtocolTest, RetiredAndUnknownKindsFailClosed) {
  const std::string health = EncodeFrame(WireHealthRequest{});
  EXPECT_TRUE(ReadBack(health).ok());
  EXPECT_TRUE(ReadBack(WithKind(health, 12)).ok());
  // 3 and 4 are the retired ping/pong; 0 and 13 were never assigned.
  for (const uint32_t kind : {0u, 3u, 4u, 13u}) {
    const StatusOr<Frame> frame = ReadBack(WithKind(health, kind));
    ASSERT_FALSE(frame.ok()) << "kind " << kind;
    EXPECT_NE(frame.status().message().find("unknown frame kind " +
                                            std::to_string(kind)),
              std::string::npos)
        << frame.status();
  }
}

TEST(ServeProtocolTest, FrameVersionRejectionMatrix) {
  WireRequest request;
  request.method = "retexpan";

  // v2: the header round-trips trace context.
  {
    FrameOptions options;
    options.trace_id = 0xabcdef0123456789ull;
    options.flags = kFrameFlagSample;
    StatusOr<Frame> frame = ReadBack(EncodeRequestFrame(request, options));
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->trace_id, 0xabcdef0123456789ull);
    EXPECT_EQ(frame->flags, kFrameFlagSample);
    WireRequest decoded;
    ASSERT_TRUE(DecodePayload(frame->payload, &decoded).ok());
    EXPECT_EQ(decoded.method, "retexpan");
  }
  // Every other version fails closed: the retired 20-byte v1 header and
  // an unknown future version alike.
  for (const uint32_t version : {1u, 3u}) {
    const StatusOr<Frame> frame =
        ReadBack(Reframe(EncodeRequestFrame(request), version));
    ASSERT_FALSE(frame.ok()) << "version " << version;
    EXPECT_NE(frame.status().message().find("unsupported frame version " +
                                            std::to_string(version)),
              std::string::npos)
        << frame.status();
  }
  // The CRC covers the trace context: a flipped trace-id byte is caught
  // even though the payload is untouched.
  {
    std::string bad = EncodeRequestFrame(request);
    bad[20 + 3] ^= 0x20;  // inside the trace_id field
    const StatusOr<Frame> frame = ReadBack(bad);
    ASSERT_FALSE(frame.ok());
    EXPECT_NE(frame.status().message().find("checksum"), std::string::npos);
  }
}

// ------------------------------------------------------ Call envelope.

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

std::string PayloadOf(const std::string& frame) {
  return frame.substr(kFrameHeaderBytes,
                      frame.size() - kFrameHeaderBytes - 4);
}

/// One message kind of the envelope table: a sample message's encoded
/// frame, that frame's pinned hex, and a decode-then-re-encode probe.
struct WireCase {
  std::string name;
  std::string frame;
  std::string golden_hex;
  bool is_reply = false;
  /// Decodes `payload` as this kind and re-frames the result with the
  /// sample's frame options.
  std::function<StatusOr<std::string>(std::string_view)> reencode;
  /// Payloads whose framing is sound but whose fields are not; each must
  /// decode to a non-OK Status.
  std::vector<std::string> hostile = {};
};

template <typename Message>
WireCase MakeCase(std::string name, const Message& sample,
                  std::string golden_hex, const FrameOptions& options = {}) {
  WireCase c;
  c.name = std::move(name);
  c.frame = EncodeFrame(sample, options);
  c.golden_hex = std::move(golden_hex);
  c.is_reply = std::is_base_of_v<ReplyHead, Message>;
  c.reencode = [options](std::string_view payload) -> StatusOr<std::string> {
    Message decoded;
    const Status status = DecodePayload(payload, &decoded);
    if (!status.ok()) return status;
    return EncodeFrame(decoded, options);
  };
  return c;
}

/// One frame of every kind. The hex pins the wire format byte for byte:
/// a change to any of these strings is a protocol change.
std::vector<WireCase> EnvelopeCases() {
  Query scatter_query;
  scatter_query.ultra_class = 1;
  scatter_query.pos_seeds = {4, 8};
  scatter_query.neg_seeds = {15};
  std::vector<WireCase> cases;

  FrameOptions traced;
  traced.trace_id = 0x0123456789abcdefull;
  traced.flags = kFrameFlagSample;
  WireRequest expand;
  expand.request_id = 77;
  expand.method = "retexpan";
  expand.k = 13;
  expand.timeout_ms = 250;
  expand.by_index = false;
  expand.query.ultra_class = 3;
  expand.query.pos_seeds = {1, 2, 5};
  expand.query.neg_seeds = {9, 11};
  cases.push_back(MakeCase(
      "expand_request", expand,
      "3146575502000000010000005000000000000000efcdab8967452301010000004d000000"
      "000000000800000000000000726574657870616e0d000000fa0000000000000000000000"
      "030000000300000000000000010000000200000005000000020000000000000009000000"
      "0b000000beaf9171",
      traced));
  {
    // by_index must be 0 or 1.
    SnapshotWriter writer;
    writer.PutU64(1);
    writer.PutString("retexpan");
    writer.PutU32(5);
    writer.PutU32(0);
    writer.PutU32(2);
    writer.PutU32(0);
    writer.PutI32(0);
    writer.PutI32Vec({});
    writer.PutI32Vec({});
    cases.back().hostile.push_back(writer.payload());
  }

  WireResponse ranked;
  ranked.request_id = 77;
  ranked.ranking = {7, 12, 30};
  cases.push_back(MakeCase(
      "expand_response", ranked,
      "31465755020000000200000028000000000000000000000000000000000000004d000000"
      "000000000000000000000000000000000300000000000000070000000c0000001e000000"
      "47d13feb"));

  WireShardRetrieveRequest retrieve;
  retrieve.request_id = 5;
  retrieve.size = 40;
  retrieve.query = scatter_query;
  cases.push_back(MakeCase(
      "shard_retrieve_request", retrieve,
      "314657550200000005000000300000000000000000000000000000000000000005000000"
      "000000002800000000000000010000000200000000000000040000000800000001000000"
      "000000000f000000c8c1fed8"));
  retrieve.size = kMaxFramePayload + 1;
  cases.back().hostile.push_back(PayloadOf(EncodeFrame(retrieve)));

  WireShardRetrieveResponse retrieved;
  retrieved.request_id = 5;
  retrieved.entities = {{0.5f, 3, 17}, {-1.25f, 900, 2}};
  cases.push_back(MakeCase(
      "shard_retrieve_response", retrieved,
      "3146575502000000060000003c0000000000000000000000000000000000000005000000"
      "0000000000000000000000000000000002000000000000000000003f0300000000000000"
      "110000000000a0bf840300000000000002000000dda4a773"));
  {
    // An entity count of 2^60: count * 16 wraps to 0 in u64, so only a
    // division-form cap rejects it before the allocation.
    SnapshotWriter writer;
    writer.PutU64(5);
    writer.PutU32(0);
    writer.PutString("");
    writer.PutU64(1ull << 60);
    cases.back().hostile.push_back(writer.payload());
  }

  WireShardScoreRequest score;
  score.request_id = 6;
  score.ids = {17, 2};
  score.query = scatter_query;
  cases.push_back(MakeCase(
      "shard_score_request", score,
      "314657550200000007000000380000000000000000000000000000000000000006000000"
      "000000000200000000000000110000000200000001000000020000000000000004000000"
      "0800000001000000000000000f0000002140f62a"));

  WireShardScoreResponse scored;
  scored.request_id = 6;
  scored.neg = {-0.5f, 1.0f};
  cases.push_back(MakeCase(
      "shard_score_response", scored,
      "314657550200000008000000240000000000000000000000000000000000000006000000"
      "000000000000000000000000000000000200000000000000000000bf0000803f"
      "16d0e8e1"));
  {
    // The former body, a positive-score vector in front of the negative
    // one: the negative vector is read from its bytes, and the rest is
    // trailing.
    SnapshotWriter writer;
    writer.PutU64(6);
    writer.PutU32(0);
    writer.PutString("");
    writer.PutFloatVec(std::vector<float>{0.25f, 0.75f});
    writer.PutFloatVec(std::vector<float>{-0.5f, 1.0f});
    cases.back().hostile.push_back(writer.payload());
  }

  WireQueryLookupRequest lookup;
  lookup.request_id = 7;
  lookup.query_index = 12;
  cases.push_back(MakeCase(
      "query_lookup_request", lookup,
      "3146575502000000090000000c0000000000000000000000000000000000000007000000"
      "000000000c000000277e15f9"));

  WireQueryLookupResponse looked;
  looked.request_id = 7;
  looked.query.ultra_class = 2;
  looked.query.pos_seeds = {3};
  cases.push_back(MakeCase(
      "query_lookup_response", looked,
      "31465755020000000a0000002c0000000000000000000000000000000000000007000000"
      "000000000000000000000000000000000200000001000000000000000300000000000000"
      "00000000b1105d5c"));

  // An error reply still carries its (empty) body.
  WireQueryLookupResponse missing;
  missing.request_id = 8;
  missing.code = static_cast<uint32_t>(StatusCode::kOutOfRange);
  missing.message = "query index out of range";
  cases.push_back(MakeCase(
      "query_lookup_error", missing,
      "31465755020000000a000000400000000000000000000000000000000000000008000000"
      "00000000040000001800000000000000717565727920696e646578206f7574206f662072"
      "616e6765000000000000000000000000000000000000000012efdc0b"));

  WireHealthRequest health;
  health.request_id = 9;
  cases.push_back(MakeCase(
      "health_request", health,
      "31465755020000000b000000080000000000000000000000000000000000000009000000"
      "0000000087eebb3c"));

  WireHealthResponse report;
  report.request_id = 9;
  report.health.generation = 3;
  report.health.draining = true;
  report.health.queue_depth = 5;
  report.health.inflight = 6;
  cases.push_back(MakeCase(
      "health_response", report,
      "31465755020000000c000000280000000000000000000000000000000000000009000000"
      "000000000000000000000000000000000300000000000000010000000500000006000000"
      "8bc8cc0d"));
  {
    // draining must be 0 or 1.
    SnapshotWriter writer;
    writer.PutU64(9);
    writer.PutU32(0);
    writer.PutString("");
    writer.PutU64(3);
    writer.PutU32(2);
    writer.PutU32(5);
    writer.PutU32(6);
    cases.back().hostile.push_back(writer.payload());
  }

  WireHealthResponse refused;
  refused.request_id = 10;
  refused.code = static_cast<uint32_t>(StatusCode::kUnavailable);
  refused.message = "busy";
  cases.push_back(MakeCase(
      "health_error", refused,
      "31465755020000000c0000002c000000000000000000000000000000000000000a000000"
      "000000000800000004000000000000006275737900000000000000000000000000000000"
      "00000000716209c7"));
  return cases;
}

TEST(ServeEnvelopeTest, EveryKindMatchesItsGoldenFrame) {
  for (const WireCase& c : EnvelopeCases()) {
    EXPECT_EQ(Hex(c.frame), c.golden_hex) << c.name;
  }
}

TEST(ServeEnvelopeTest, EveryKindRoundTripsAndFailsClosed) {
  for (const WireCase& c : EnvelopeCases()) {
    SCOPED_TRACE(c.name);
    const std::string payload = PayloadOf(c.frame);
    const StatusOr<std::string> again = c.reencode(payload);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(Hex(*again), Hex(c.frame));

    const Status truncated = c.reencode(payload.substr(0, payload.size() - 1))
                                 .status();
    EXPECT_EQ(truncated.code(), StatusCode::kInternal) << truncated;
    const Status trailing = c.reencode(payload + '\0').status();
    EXPECT_NE(trailing.message().find("unconsumed"), std::string::npos)
        << trailing;

    if (c.is_reply) {
      // The reply code is the u32 after the echoed u64 id.
      std::string code = payload;
      code[8] = static_cast<char>(StatusCode::kUnavailable);
      EXPECT_TRUE(c.reencode(code).ok());
      code[8] = static_cast<char>(static_cast<int>(StatusCode::kUnavailable) +
                                  1);
      const Status out_of_range = c.reencode(code).status();
      EXPECT_NE(out_of_range.message().find("status code out of range"),
                std::string::npos)
          << out_of_range;
    }
    for (const std::string& hostile : c.hostile) {
      EXPECT_EQ(c.reencode(hostile).status().code(), StatusCode::kInternal);
    }
  }
}

// ------------------------------------------------------------ Service.

TEST(ServeServiceTest, UnknownMethodAndBadKRejectImmediately) {
  ExpansionService service(TestPipeline(), ServeConfig{});
  ExpandRequest request;
  request.method = "no-such-method";
  request.query = TestPipeline().dataset().queries.at(0);
  ExpandResult result = service.Expand(request);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);

  request.method = "retexpan";
  request.k = 0;
  result = service.Expand(request);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

TEST(ServeServiceTest, RankingBitIdenticalWhateverRunsBesideIt) {
  const auto& queries = TestPipeline().dataset().queries;
  ASSERT_GE(queries.size(), 2u);
  constexpr int kK = 25;
  const std::vector<EntityId> want_ret = Reference("retexpan", queries[0], kK);
  const std::vector<EntityId> want_set = Reference("setexpan", queries[0], kK);

  for (int threads : {1, 8}) {
    ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(threads).ok());
    // Served alone.
    {
      ExpansionService service(TestPipeline(), ServeConfig{});
      ExpandRequest request{"retexpan", queries[0], kK, -1};
      EXPECT_EQ(service.Expand(request).ranking, want_ret)
          << "solo, threads=" << threads;
    }
    // Served in a mixed burst: the same request runs beside other
    // methods and other queries; its ranking must not change. Every
    // request is held 50 ms on its slot, far longer than starting the
    // burst takes, so the burst overlaps.
    {
      ServeConfig held;
      held.synthetic_delay_ms = 50;
      ExpansionService service(TestPipeline(), held);
      ASSERT_TRUE(service.PrewarmMethods({"retexpan", "setexpan"}).ok());
      obs::Gauge& queue_peak = obs::GetGauge("serve.queue_peak");
      queue_peak.Set(0);
      std::vector<std::future<ExpandResult>> futures;
      std::vector<const std::vector<EntityId>*> want;
      for (int round = 0; round < 4; ++round) {
        futures.push_back(
            ExpandOnThread(service, {"retexpan", queries[0], kK, -1}));
        want.push_back(&want_ret);
        futures.push_back(
            ExpandOnThread(service, {"setexpan", queries[0], kK, -1}));
        want.push_back(&want_set);
        futures.push_back(ExpandOnThread(
            service,
            {"retexpan", queries[1 + (round % (queries.size() - 1))], kK,
             -1}));
        want.push_back(nullptr);  // filler traffic, not checked
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        ExpandResult result = futures[i].get();
        ASSERT_TRUE(result.status.ok()) << result.status;
        if (want[i] != nullptr) {
          EXPECT_EQ(result.ranking, *want[i])
              << "slot " << i << ", threads=" << threads;
        }
      }
      // The burst really overlapped: some request waited for a slot while
      // the others executed (12 requests, at most 8 slots). The peak is
      // recorded at enqueue, so the check cannot miss a short wait.
      EXPECT_GT(queue_peak.Value(), 0) << "threads=" << threads;
    }
  }
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(0).ok());
}

TEST(ServeServiceTest, ExpiredDeadlineTimesOutWithoutPoisoningTheQueue) {
  const auto& queries = TestPipeline().dataset().queries;
  ServeConfig config;
  // Every request stalls long past the 1 ms deadline below.
  config.synthetic_delay_ms = 50;
  ExpansionService service(TestPipeline(), config);

  ExpandRequest doomed{"retexpan", queries[0], 10, /*timeout_ms=*/1};
  ExpandResult timed_out = service.Expand(doomed);
  EXPECT_EQ(timed_out.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(timed_out.ranking.empty());

  // The queue keeps serving correct results afterwards.
  ExpandRequest fine{"retexpan", queries[0], 10, /*timeout_ms=*/0};
  ExpandResult ok = service.Expand(fine);
  ASSERT_TRUE(ok.status.ok()) << ok.status;
  EXPECT_EQ(ok.ranking, Reference("retexpan", queries[0], 10));
}

TEST(ServeServiceTest, DegradedExpansionPropagatesThroughService) {
  // A standing one-expansion budget (resolved from the env when the
  // service lazily builds its GenExpan) deterministically truncates every
  // generation, so the degraded flag must surface in the ExpandResult
  // and the serve.degraded counter.
  setenv("UW_GENEXPAN_MAX_EXPANSIONS", "1", 1);
  const auto& queries = TestPipeline().dataset().queries;
  ExpansionService service(TestPipeline(), ServeConfig{});
  const int64_t degraded_before =
      obs::GetCounter("serve.degraded").Value();
  ExpandResult result =
      service.Expand({"genexpan", queries[0], 20, /*timeout_ms=*/0});
  unsetenv("UW_GENEXPAN_MAX_EXPANSIONS");
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(obs::GetCounter("serve.degraded").Value(), degraded_before + 1);

  // An unbudgeted service never degrades and matches the offline path.
  ExpansionService fresh(TestPipeline(), ServeConfig{});
  ExpandResult full =
      fresh.Expand({"genexpan", queries[0], 20, /*timeout_ms=*/0});
  ASSERT_TRUE(full.status.ok()) << full.status;
  EXPECT_FALSE(full.degraded);
  EXPECT_EQ(full.ranking, Reference("genexpan", queries[0], 20));
}

TEST(ServeServiceTest, RequestDeadlineThreadsIntoAnytimeExpanders) {
  // A 1 ms deadline lands in exactly one of three places, all legal:
  // expired before execution (kDeadlineExceeded, empty ranking), expired
  // mid-generation (OK + degraded best-so-far), or beaten by a fast
  // machine (OK, not degraded, bit-identical to the offline ranking).
  // What must never happen is an OK-but-unflagged partial result.
  const auto& queries = TestPipeline().dataset().queries;
  ExpansionService service(TestPipeline(), ServeConfig{});
  ExpandResult result =
      service.Expand({"genexpan", queries[0], 30, /*timeout_ms=*/1});
  if (!result.status.ok()) {
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(result.ranking.empty());
  } else if (!result.degraded) {
    EXPECT_EQ(result.ranking, Reference("genexpan", queries[0], 30));
  }
}

TEST(ServeServiceTest, IdleSlotTakesAnArrivalWhileAnotherSlotRuns) {
  // Two slots, every request held 100 ms on its slot. B arrives 20 ms
  // after A, while A's slot is busy; the idle slot must take B at once
  // rather than wait for A, so B completes about 20 ms after A, not a
  // whole hold later.
  const auto& queries = TestPipeline().dataset().queries;
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(2).ok());
  {
    ServeConfig config;
    config.synthetic_delay_ms = 100;
    ExpansionService service(TestPipeline(), config);
    ASSERT_TRUE(service.PrewarmMethods({"retexpan"}).ok());
    std::future<ExpandResult> a =
        ExpandOnThread(service, {"retexpan", queries[0], 10, -1});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::future<ExpandResult> b =
        ExpandOnThread(service, {"retexpan", queries[0], 10, -1});
    ASSERT_TRUE(a.get().status.ok());
    const auto a_done = std::chrono::steady_clock::now();
    ASSERT_TRUE(b.get().status.ok());
    const auto gap = std::chrono::steady_clock::now() - a_done;
    EXPECT_LT(gap, std::chrono::milliseconds(60))
        << "B finished "
        << std::chrono::duration_cast<std::chrono::milliseconds>(gap).count()
        << " ms after A";
  }
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(0).ok());
}

TEST(ServeServiceTest, GlobalPoolStaysFreeWhileRequestsRun) {
  // A request runs on its caller's thread and keeps its nested
  // ParallelFors inline, so while one runs the global pool stays free: a
  // two-index ParallelFor still runs its indices side by side. Building
  // the IVF-backed "retexpan" through the scatter plane (IvfIndex::Build
  // fans out on the global pool) waits for the running request under the
  // exclusive pipeline lock, does not deadlock, and recalls what the
  // offline expander does.
  const auto& queries = TestPipeline().dataset().queries;
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(2).ok());
  setenv("UW_ANN_ENABLE", "1", 1);
  {
    ServeConfig config;
    config.synthetic_delay_ms = 300;
    ExpansionService service(TestPipeline(), config);
    ASSERT_TRUE(service.PrewarmMethods({"setexpan"}).ok());
    std::future<ExpandResult> held =
        ExpandOnThread(service, {"setexpan", queries[0], 10, -1});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    // Each index waits up to 100 ms (well inside the 300 ms hold) for
    // the other to start.
    std::atomic<int> started{0};
    std::atomic<int> side_by_side{0};
    ThreadPool::Global().ParallelFor(0, 2, /*grain=*/1, [&](int64_t) {
      started.fetch_add(1);
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
      while (started.load() < 2 && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (started.load() == 2) side_by_side.fetch_add(1);
    });
    EXPECT_EQ(held.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout)
        << "the held request finished before the probe ran";
    EXPECT_EQ(side_by_side.load(), 2)
        << "a global-pool worker was held by the running request";

    // The first ANN RetExpan of this process builds the IVF index (the
    // suite runs without an artifact cache), here once the held request
    // has left the pipeline.
    const int64_t kmeans_before =
        obs::GetCounter("ann.kmeans_iterations").Value();
    StatusOr<std::vector<ShardScoredEntity>> recalled =
        service.ScatterRetrieve(queries[0], 50);
    ASSERT_TRUE(recalled.ok()) << recalled.status();
    EXPECT_GT(obs::GetCounter("ann.kmeans_iterations").Value(), kmeans_before);
    auto offline = MakeExpanderByName(TestPipeline(), "retexpan");
    const std::vector<ScoredIndex> want =
        static_cast<const RetExpan&>(*offline).Recall(queries[0], 50);
    ASSERT_EQ(recalled->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*recalled)[i].position, static_cast<uint64_t>(want[i].index));
      EXPECT_EQ((*recalled)[i].score, want[i].score);
    }

    ExpandResult result = held.get();
    ASSERT_TRUE(result.status.ok()) << result.status;
    EXPECT_EQ(result.ranking, Reference("setexpan", queries[0], 10));
    // The retexpan the scatter plane built serves requests too.
    result = service.Expand({"retexpan", queries[0], 10, -1});
    ASSERT_TRUE(result.status.ok()) << result.status;
    EXPECT_EQ(result.ranking, offline->Expand(queries[0], 10));
  }
  unsetenv("UW_ANN_ENABLE");
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(0).ok());
}

TEST(ServeServiceTest, OverloadShedsButAcceptedResultsStayCorrect) {
  const auto& queries = TestPipeline().dataset().queries;
  constexpr int kK = 15;
  const std::vector<EntityId> want = Reference("setexpan", queries[0], kK);

  // Two slots on any host, so at most 2 + 4 requests are admitted before
  // the first 10 ms stall ends and the burst must shed.
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(2).ok());
  ServeConfig config;
  config.max_queue = 4;
  config.synthetic_delay_ms = 10;  // drain slower than the burst arrives
  ExpansionService service(TestPipeline(), config);

  constexpr int kBurst = 48;
  std::vector<std::future<ExpandResult>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(
        ExpandOnThread(service, {"setexpan", queries[0], kK, -1}));
  }
  int served = 0;
  int shed = 0;
  for (auto& future : futures) {
    ExpandResult result = future.get();
    if (result.status.ok()) {
      ++served;
      // Shedding must never corrupt an accepted request's ranking.
      ASSERT_EQ(result.ranking, want);
    } else {
      ASSERT_EQ(result.status.code(), StatusCode::kUnavailable)
          << result.status;
      EXPECT_TRUE(result.ranking.empty());
      ++shed;
    }
  }
  EXPECT_EQ(served + shed, kBurst);
  // A 4-deep queue drained one request per slot every 10 ms cannot
  // absorb a 48-request burst: the bound must have shed some of it.
  EXPECT_GT(shed, 0);
  EXPECT_GT(served, 0);
  service.Drain();
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(0).ok());
}

TEST(ServeServiceTest, ScatterCallsTakeSlotsAndShedAtTheQueueBound) {
  // Scatter calls share the execution slots and the admission bound of
  // Expand. Both slots of a 2-slot service are held by stalled requests,
  // so a scatter burst past max_queue must shed some calls, and every
  // accepted call answers exactly what the offline RetExpan recalls and
  // the store scores.
  const auto& queries = TestPipeline().dataset().queries;
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(2).ok());
  {
    ServeConfig config;
    config.max_queue = 4;
    config.synthetic_delay_ms = 100;
    ExpansionService service(TestPipeline(), config);
    ASSERT_TRUE(service.PrewarmMethods({"setexpan"}).ok());
    constexpr int kBurst = 16;
    const std::vector<EntityId> ids = Reference("setexpan", queries[0], 30);
    std::vector<StatusOr<std::vector<ShardScoredEntity>>> recalled(
        kBurst, Status::Unavailable("not run"));
    std::vector<StatusOr<std::vector<float>>> scored(
        kBurst, Status::Unavailable("not run"));
    // Starting a thread can outlast the 100 ms hold on a loaded host, so
    // the burst threads start before the hold and wait on `go`, which
    // opens once both slots are held; the burst then arrives at once.
    std::latch ready(kBurst);
    std::latch go(1);
    std::vector<std::thread> burst;
    for (int i = 0; i < kBurst; ++i) {
      burst.emplace_back([&, i] {
        ready.count_down();
        go.wait();
        if (i % 2 == 0) {
          recalled[i] = service.ScatterRetrieve(queries[0], 50);
        } else {
          scored[i] = service.ScatterScore(queries[0], ids);
        }
      });
    }
    ready.wait();
    std::vector<std::future<ExpandResult>> held;
    for (int i = 0; i < 2; ++i) {
      held.push_back(ExpandOnThread(service, {"setexpan", queries[0], 10, -1}));
    }
    AwaitInflight(service, 2);
    EXPECT_EQ(service.queue_depth(), 0);
    go.count_down();
    for (std::thread& thread : burst) thread.join();

    auto offline = MakeExpanderByName(TestPipeline(), "retexpan");
    const std::vector<ScoredIndex> want =
        static_cast<const RetExpan&>(*offline).Recall(queries[0], 50);
    const std::vector<float> want_neg =
        TestPipeline().store().SeedCentroidScores(queries[0].neg_seeds, ids);
    // Per call kind (0 = retrieve, 1 = score): at most 4 of the burst wait,
    // so each kind of 8 sheds some.
    int served[2] = {0, 0};
    int shed[2] = {0, 0};
    for (int i = 0; i < kBurst; ++i) {
      const Status status =
          i % 2 == 0 ? recalled[i].status() : scored[i].status();
      if (!status.ok()) {
        EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
        ++shed[i % 2];
        continue;
      }
      ++served[i % 2];
      if (i % 2 == 0) {
        ASSERT_EQ(recalled[i]->size(), want.size());
        for (size_t j = 0; j < want.size(); ++j) {
          EXPECT_EQ((*recalled[i])[j].position,
                    static_cast<uint64_t>(want[j].index));
          EXPECT_EQ((*recalled[i])[j].score, want[j].score);
        }
      } else {
        EXPECT_EQ(*scored[i], want_neg);
      }
    }
    EXPECT_EQ(served[0] + served[1] + shed[0] + shed[1], kBurst);
    EXPECT_GT(shed[0], 0);
    EXPECT_GT(shed[1], 0);
    EXPECT_GT(served[0] + served[1], 0);
    for (auto& future : held) {
      ExpandResult result = future.get();
      ASSERT_TRUE(result.status.ok()) << result.status;
      EXPECT_EQ(result.ranking, Reference("setexpan", queries[0], 10));
    }
  }
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(0).ok());
}

TEST(ServeServiceTest, BuildWaitsForExecutingRequests) {
  // Runs at the slot count UW_THREADS gives. Requests on all slots but
  // one stall 300 ms each, holding the pipeline lock shared. Then a
  // retexpan request arrives, whose expander this service has not built:
  // its build takes the lock exclusively, so it starts only once every
  // held request has left, and the request's own 300 ms stall follows the
  // build. It therefore finishes at least ~300 ms after the last held
  // request; a build beside them would finish it ~20 ms after. Every
  // ranking equals the offline expander's.
  using Clock = std::chrono::steady_clock;
  const auto& queries = TestPipeline().dataset().queries;
  constexpr int kHoldMs = 300;
  ServeConfig config;
  config.synthetic_delay_ms = kHoldMs;
  ExpansionService service(TestPipeline(), config);
  ASSERT_TRUE(service.PrewarmMethods({"setexpan"}).ok());

  const int held_count = std::max(1, service.slots() - 1);
  std::vector<ExpandResult> held(static_cast<size_t>(held_count));
  std::vector<Clock::time_point> held_done(static_cast<size_t>(held_count));
  std::vector<std::thread> threads;
  for (int i = 0; i < held_count; ++i) {
    threads.emplace_back([&, i] {
      held[i] = service.Expand({"setexpan", queries[0], 10, -1});
      held_done[i] = Clock::now();
    });
  }
  AwaitInflight(service, held_count);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ExpandResult built;
  Clock::time_point built_done;
  threads.emplace_back([&] {
    built = service.Expand({"retexpan", queries[0], 10, -1});
    built_done = Clock::now();
  });
  for (std::thread& thread : threads) thread.join();

  const std::vector<EntityId> want_set = Reference("setexpan", queries[0], 10);
  for (const ExpandResult& result : held) {
    ASSERT_TRUE(result.status.ok()) << result.status;
    EXPECT_EQ(result.ranking, want_set);
  }
  ASSERT_TRUE(built.status.ok()) << built.status;
  EXPECT_EQ(built.ranking, Reference("retexpan", queries[0], 10));
  const auto last_held = *std::max_element(held_done.begin(), held_done.end());
  EXPECT_GE(built_done - last_held, std::chrono::milliseconds(kHoldMs - 50))
      << "slots=" << service.slots() << ": the build ran beside the "
      << "held requests";
}

TEST(ServeServiceTest, DrainServesBacklogThenRejectsNewWork) {
  const auto& queries = TestPipeline().dataset().queries;
  ServeConfig config;
  config.synthetic_delay_ms = 10;  // no request finishes within 10 ms
  ExpansionService service(TestPipeline(), config);
  // Starting a thread can take longer than the 10 ms hold on a loaded
  // host, so the callers call Expand only once all of them have started;
  // otherwise the first could finish before the last is admitted.
  constexpr int kCallers = 8;
  std::latch started(kCallers);
  std::vector<std::future<ExpandResult>> futures;
  for (int i = 0; i < kCallers; ++i) {
    futures.push_back(std::async(std::launch::async, [&] {
      started.arrive_and_wait();
      return service.Expand({"retexpan", queries[0], 10, -1});
    }));
  }
  // Every caller admitted before Drain closes: wait up to 2 s until the
  // finished calls plus those in flight reach kCallers. The finished ones
  // are read first, and a call is released before its future is ready,
  // so no call counts twice, and one that already finished still counts.
  for (int spin = 0; spin < 2000; ++spin) {
    const int finished = static_cast<int>(
        std::count_if(futures.begin(), futures.end(), [](const auto& f) {
          return f.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready;
        }));
    if (finished + service.inflight() >= kCallers) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(service.inflight(), 0);  // Drain below has a backlog to serve
  service.Drain();
  EXPECT_EQ(service.inflight(), 0);  // Drain returns once all have finished
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  ExpandResult rejected = service.Expand({"retexpan", queries[0], 10, -1});
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.queue_depth(), 0);
}

// ------------------------------------------------------------ Tracing.

TEST(ServeTraceTest, RankingsBitIdenticalAcrossTracingModes) {
  obs::SlowQueryLog::Global().ResetForTest();
  const auto& queries = TestPipeline().dataset().queries;
  constexpr int kK = 25;
  const std::vector<EntityId> want_ret = Reference("retexpan", queries[0], kK);
  const std::vector<EntityId> want_set = Reference("setexpan", queries[0], kK);

  // Off / sampled (every request) / slow-threshold armed + forced: the
  // tracing plane is passive, so all three serve the reference ranking
  // byte for byte.
  ServeConfig off;
  ServeConfig sampled;
  sampled.trace_sample = 1;
  ServeConfig armed;
  armed.slow_query_ms = 1000000;  // armed, never slow
  for (const ServeConfig& config : {off, sampled, armed}) {
    ExpansionService service(TestPipeline(), config);
    ExpandRequest ret{"retexpan", queries[0], kK, -1};
    ExpandRequest set{"setexpan", queries[0], kK, -1};
    set.force_trace = true;  // exercise the forced path too
    ExpandResult ret_result = service.Expand(ret);
    ExpandResult set_result = service.Expand(set);
    ASSERT_TRUE(ret_result.status.ok()) << ret_result.status;
    ASSERT_TRUE(set_result.status.ok()) << set_result.status;
    EXPECT_EQ(ret_result.ranking, want_ret)
        << "trace_sample=" << config.trace_sample
        << " slow_query_ms=" << config.slow_query_ms;
    EXPECT_EQ(set_result.ranking, want_set)
        << "trace_sample=" << config.trace_sample
        << " slow_query_ms=" << config.slow_query_ms;
  }
  obs::SlowQueryLog::Global().ResetForTest();
}

TEST(ServeTraceTest, SlowQuerySpanTreeTilesTheEndToEndLatency) {
  obs::SlowQueryLog::Global().ResetForTest();
  const auto& queries = TestPipeline().dataset().queries;
  ServeConfig config;
  // Force the request slow: the synthetic stall lands in batch_wait, so
  // the stage breakdown must account for it.
  config.synthetic_delay_ms = 60;
  config.slow_query_ms = 20;
  ExpansionService service(TestPipeline(), config);

  ExpandRequest request{"retexpan", queries[0], 20, -1};
  request.trace_id = 4242;
  ExpandResult result = service.Expand(request);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.ranking, Reference("retexpan", queries[0], 20));

  const std::vector<obs::RequestTraceData> slow =
      obs::SlowQueryLog::Global().Snapshot();
  ASSERT_EQ(slow.size(), 1u);
  const obs::RequestTraceData& trace = slow[0];
  EXPECT_EQ(trace.trace_id, 4242u);
  EXPECT_EQ(trace.method, "retexpan");
  EXPECT_GE(trace.total_us, 60000);  // at least the synthetic stall

  // The three root stages tile the request: queue wait + batch wait +
  // execute must sum to the end-to-end latency within 5% (the residual
  // is promise resolution and timestamping).
  int64_t stage_sum = 0;
  bool saw_queue = false, saw_batch = false, saw_execute = false;
  for (const obs::RequestSpanEvent& event : trace.events) {
    if (event.parent != -1) continue;
    stage_sum += event.dur_us;
    saw_queue |= event.name == "queue_wait";
    saw_batch |= event.name == "batch_wait";
    saw_execute |= event.name == "execute";
  }
  EXPECT_TRUE(saw_queue && saw_batch && saw_execute)
      << "stages missing from " << obs::ExportRequestTracesJson({trace});
  EXPECT_GE(stage_sum, trace.total_us * 95 / 100)
      << obs::ExportRequestTracesJson({trace});
  EXPECT_LE(stage_sum, trace.total_us);

  // The expander's own UW_SPAN scopes nest under "execute".
  bool saw_expander_span = false;
  for (const obs::RequestSpanEvent& event : trace.events) {
    if (event.name == "retexpan.expand") {
      saw_expander_span = true;
      EXPECT_GE(event.parent, 0);
      EXPECT_EQ(trace.events[static_cast<size_t>(event.parent)].name,
                "execute");
    }
  }
  EXPECT_TRUE(saw_expander_span) << obs::ExportRequestTracesJson({trace});

  // And the whole thing exports as Chrome trace-event JSON.
  const std::string chrome = obs::ExportChromeTraceJson(slow);
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome.find("\"pid\":4242"), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"queue_wait\""), std::string::npos);
  obs::SlowQueryLog::Global().ResetForTest();
}

// ---------------------------------------------------------------- TCP.

TEST(ServeTcpTest, LoopbackEndToEndMatchesLocalRankings) {
  const auto& queries = TestPipeline().dataset().queries;
  ExpansionService service(TestPipeline(), ServeConfig{});
  TcpServer server(service);
  ASSERT_TRUE(server.Start(/*port=*/0).ok());
  ASSERT_GT(server.port(), 0);

  auto client = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->Health().ok());

  for (const std::string method : {"retexpan", "setexpan"}) {
    const auto remote = client->ExpandByIndex(method, 0, 20);
    ASSERT_TRUE(remote.ok()) << remote.status();
    EXPECT_EQ(*remote, Reference(method, queries[0], 20)) << method;
  }
  // Explicit-seed queries take the other wire shape to the same answer.
  const auto explicit_ranking =
      client->ExpandQuery("retexpan", queries[0], 20);
  ASSERT_TRUE(explicit_ranking.ok()) << explicit_ranking.status();
  EXPECT_EQ(*explicit_ranking, Reference("retexpan", queries[0], 20));

  // Server-side validation surfaces as typed statuses, not dead sockets.
  EXPECT_EQ(client->ExpandByIndex("bogus", 0, 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      client
          ->ExpandByIndex("retexpan",
                          static_cast<uint32_t>(queries.size() + 100), 5)
          .status()
          .code(),
      StatusCode::kOutOfRange);

  server.Shutdown();
  EXPECT_EQ(server.protocol_errors(), 0);
  EXPECT_GE(server.requests_served(), 5);
}

TEST(ServeTcpTest, GarbageBytesCountAsProtocolErrorAndCloseTheSession) {
  ExpansionService service(TestPipeline(), ServeConfig{});
  TcpServer server(service);
  ASSERT_TRUE(server.Start(0).ok());

  // Raw sockets feed the server a health request with a flipped CRC byte,
  // a well-formed health request in the retired v1 framing, and a sound
  // frame of the retired ping kind 3. The v1 frame is shorter than the
  // 32-byte header, so the peer half-closes to show it is done.
  const std::string health = EncodeFrame(WireHealthRequest{});
  std::string bad_crc = health;
  bad_crc.back() = static_cast<char>(bad_crc.back() ^ 0x1);
  const std::vector<std::string> inputs = {bad_crc, Reframe(health, 1),
                                           WithKind(health, 3)};
  for (size_t i = 0; i < inputs.size(); ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server.port()));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_TRUE(WriteAll(fd, inputs[i].data(), inputs[i].size()).ok());
    ::shutdown(fd, SHUT_WR);
    // The server must drop the session: the next read sees EOF, not a
    // reply. The kind-3 frame is rejected at its header, and closing with
    // its payload and CRC unread makes the kernel reset the connection
    // instead of sending EOF.
    char byte;
    const Status read = ReadExact(fd, &byte, 1);
    if (i < 2) {
      EXPECT_EQ(read.code(), StatusCode::kUnavailable) << "input " << i;
    } else {
      EXPECT_FALSE(read.ok()) << "input " << i;
    }
    ::close(fd);

    // The error is counted.
    const int64_t want = static_cast<int64_t>(i) + 1;
    for (int spin = 0; spin < 100 && server.protocol_errors() < want;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server.protocol_errors(), want) << "input " << i;
  }

  // Healthy clients are unaffected.
  auto client = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE(client->Health().ok());
  client->Close();
  server.Shutdown();
}

TEST(ServeTcpTest, ForcedTraceLandsInSlowLogWithClientTraceId) {
  obs::SlowQueryLog::Global().ResetForTest();
  const auto& queries = TestPipeline().dataset().queries;
  ExpansionService service(TestPipeline(), ServeConfig{});
  TcpServer server(service);
  ASSERT_TRUE(server.Start(0).ok());

  auto client = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  client->set_force_trace(true);
  const auto ranking = client->ExpandByIndex("setexpan", 0, 15);
  ASSERT_TRUE(ranking.ok()) << ranking.status();
  EXPECT_EQ(*ranking, Reference("setexpan", queries[0], 15));

  const std::vector<obs::RequestTraceData> slow =
      obs::SlowQueryLog::Global().Snapshot();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].trace_id, client->last_trace_id());
  EXPECT_EQ(slow[0].method, "setexpan");
  EXPECT_FALSE(slow[0].events.empty());

  client->Close();
  server.Shutdown();
  obs::SlowQueryLog::Global().ResetForTest();
}

TEST(ServeTcpTest, ShedReplyLeavesTheClientConnected) {
  // A 2-slot service that lets nobody wait, both slots held by stalled
  // requests: a request over TCP is shed. The shed is a well-formed
  // reply, so the client stays connected and its next call succeeds.
  const auto& queries = TestPipeline().dataset().queries;
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(2).ok());
  {
    ServeConfig config;
    config.max_queue = 0;
    config.synthetic_delay_ms = 200;
    ExpansionService service(TestPipeline(), config);
    ASSERT_TRUE(service.PrewarmMethods({"setexpan"}).ok());
    TcpServer server(service);
    ASSERT_TRUE(server.Start(0).ok());
    std::vector<std::future<ExpandResult>> held;
    for (int i = 0; i < 2; ++i) {
      held.push_back(ExpandOnThread(service, {"setexpan", queries[0], 10, -1}));
    }
    AwaitInflight(service, 2);

    auto client = ServeClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status();
    const auto shed = client->ExpandByIndex("setexpan", 0, 10);
    ASSERT_EQ(shed.status().code(), StatusCode::kUnavailable) << shed.status();
    EXPECT_TRUE(client->connected());

    for (auto& future : held) ASSERT_TRUE(future.get().status.ok());
    const auto served = client->ExpandByIndex("setexpan", 0, 10);
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(*served, Reference("setexpan", queries[0], 10));
    client->Close();
    server.Shutdown();
  }
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(0).ok());
}

TEST(ServeTcpTest, ServerClosingMidFrameDisconnectsTheClient) {
  // A fake server reads the request, sends the first half of a reply
  // frame and closes. The stream is broken, so the client closes too.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  std::thread fake([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    UW_CHECK_GE(fd, 0);
    UW_CHECK(ReadFrame(fd).ok());
    const std::string reply = EncodeFrame(WireHealthResponse{});
    UW_CHECK(WriteAll(fd, reply.data(), reply.size() / 2).ok());
    ::close(fd);
  });

  auto client = ServeClient::Connect("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(client.ok()) << client.status();
  const StatusOr<HealthReport> health = client->Health();
  fake.join();
  ::close(listener);
  EXPECT_EQ(health.status().code(), StatusCode::kInternal) << health.status();
  EXPECT_FALSE(client->connected());
  // A closed client refuses further calls without touching a socket.
  EXPECT_EQ(client->Health().status().code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------- Health.

TEST(ServeHealthTest, AnswersAtOnceWhileEverySlotIsHeld) {
  // Every slot is held by a stalled request. Health takes no slot and no
  // pipeline lock, so it answers at once and counts every held request.
  const auto& queries = TestPipeline().dataset().queries;
  ServeConfig config;
  config.synthetic_delay_ms = 500;
  ExpansionService service(TestPipeline(), config);
  ASSERT_TRUE(service.PrewarmMethods({"setexpan"}).ok());
  TcpServer server(service);
  ASSERT_TRUE(server.Start(0).ok());
  std::vector<std::future<ExpandResult>> held;
  for (int i = 0; i < service.slots(); ++i) {
    held.push_back(ExpandOnThread(service, {"setexpan", queries[0], 10, -1}));
  }
  AwaitInflight(service, service.slots());

  auto client = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  const auto start = std::chrono::steady_clock::now();
  const StatusOr<HealthReport> health = client->Health();
  const auto took = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_LT(took, std::chrono::milliseconds(100));
  EXPECT_EQ(health->inflight, static_cast<uint32_t>(service.slots()));
  EXPECT_EQ(health->queue_depth, 0u);
  EXPECT_FALSE(health->draining);
  EXPECT_EQ(health->generation, 1u);
  for (auto& future : held) ASSERT_TRUE(future.get().status.ok());

  // A draining service says so in the typed flag.
  service.Drain();
  const StatusOr<HealthReport> drained = client->Health();
  ASSERT_TRUE(drained.ok()) << drained.status();
  EXPECT_TRUE(drained->draining);
  EXPECT_EQ(drained->inflight, 0u);
  client->Close();
  server.Shutdown();
}

TEST(ServeHealthTest, EmptyHostReportsDraining) {
  ServiceHost host;
  TcpServer server(static_cast<Frontend&>(host));
  ASSERT_TRUE(server.Start(0).ok());
  auto client = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  const StatusOr<HealthReport> health = client->Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->draining);
  EXPECT_EQ(health->generation, 0u);
  EXPECT_EQ(health->queue_depth, 0u);
  EXPECT_EQ(health->inflight, 0u);
  client->Close();
  server.Shutdown();
}

// -------------------------------------------------------------- Admin.

/// Minimal HTTP GET against the admin listener: full response text.
std::string AdminGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  UW_CHECK_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  UW_CHECK_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  UW_CHECK_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  UW_CHECK(WriteAll(fd, request.data(), request.size()).ok());
  std::string response;
  char buffer[4096];
  ssize_t got;
  while ((got = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(got));
  }
  ::close(fd);
  return response;
}

TEST(AdminServerTest, RoutesAnswerAndUnknownPathIs404) {
  ServeConfig config;
  config.default_timeout_ms = 750;
  ExpansionService service(TestPipeline(), config);
  AdminServer admin(service);
  ASSERT_TRUE(admin.Start(0).ok());
  ASSERT_GT(admin.port(), 0);

  const std::string health = AdminGet(admin.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = AdminGet(admin.port(), "/metrics");
  EXPECT_NE(metrics.find("uw_serve_accepted"), std::string::npos);
  EXPECT_NE(metrics.find("TYPE uw_serve_latency_us histogram"),
            std::string::npos);

  const std::string statusz = AdminGet(admin.port(), "/statusz");
  EXPECT_NE(statusz.find("\"draining\":0"), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("\"queue_depth\":"), std::string::npos);
  EXPECT_NE(statusz.find("\"inflight\":"), std::string::npos);
  EXPECT_NE(statusz.find("\"slots\":" +
                         std::to_string(ThreadPool::Global().thread_count())),
            std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("\"default_timeout_ms\":750"), std::string::npos)
      << statusz;

  const std::string slow = AdminGet(admin.port(), "/slow");
  EXPECT_NE(slow.find("\"traceEvents\":["), std::string::npos);

  EXPECT_NE(AdminGet(admin.port(), "/nope").find("404"), std::string::npos);

  // Draining flips /healthz to 503 and /statusz to draining:1.
  service.Drain();
  EXPECT_NE(AdminGet(admin.port(), "/healthz").find("503"),
            std::string::npos);
  EXPECT_NE(AdminGet(admin.port(), "/statusz").find("\"draining\":1"),
            std::string::npos);
  admin.Shutdown();
}

TEST(AdminServerTest, ScrapesCleanlyUnderConcurrentServingLoad) {
  obs::SlowQueryLog::Global().ResetForTest();
  const auto& queries = TestPipeline().dataset().queries;
  ServeConfig config;
  config.trace_sample = 3;  // mixed traced / untraced traffic
  ExpansionService service(TestPipeline(), config);
  AdminServer admin(service);
  ASSERT_TRUE(admin.Start(0).ok());

  // Load threads hammer the service while scrapers hit every route; TSan
  // (the serve_test job runs under it in CI) vouches for the absence of
  // data races between the serving plane and the telemetry reads.
  constexpr int kRequestsPerThread = 12;
  std::vector<std::thread> load;
  std::atomic<int> failures{0};
  for (int t = 0; t < 2; ++t) {
    load.emplace_back([&service, &queries, &failures] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        ExpandRequest request{"retexpan",
                              queries[static_cast<size_t>(i) % queries.size()],
                              10, -1};
        if (!service.Expand(request).status.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int scrape = 0; scrape < 6; ++scrape) {
    for (const char* path : {"/metrics", "/statusz", "/slow", "/healthz"}) {
      const std::string response = AdminGet(admin.port(), path);
      EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos)
          << path << " mid-load: " << response.substr(0, 64);
    }
  }
  for (std::thread& thread : load) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // The final scrape reflects the completed load.
  const std::string metrics = AdminGet(admin.port(), "/metrics");
  EXPECT_NE(metrics.find("uw_serve_completed"), std::string::npos);
  admin.Shutdown();
  obs::SlowQueryLog::Global().ResetForTest();
}

}  // namespace
}  // namespace serve
}  // namespace ultrawiki
