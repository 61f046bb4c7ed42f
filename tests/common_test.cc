#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "common/env.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace ultrawiki {
namespace {

// ---------------------------------------------------------------- Status.

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = Status::NotFound("missing entity");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing entity");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing entity");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::FailedPrecondition("").code(), Status::OutOfRange("").code(),
      Status::Internal("").code(), Status::Unimplemented("").code()};
  EXPECT_EQ(codes.size(), 6u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusCodeTest, NamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "INTERNAL");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::OutOfRange("bad k"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result(std::string("payload"));
  const std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

TEST(StatusOrTest, ArrowOperator) {
  StatusOr<std::string> result(std::string("abc"));
  EXPECT_EQ(result->size(), 3u);
}

// ------------------------------------------------------------------- Rng.

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int value = rng.UniformInt(-3, 5);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 5);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double value = rng.UniformDouble();
    ASSERT_GE(value, 0.0);
    ASSERT_LT(value, 1.0);
    sum += value;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 20000.0, 0.6, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(RngTest, SampleWithoutReplacementUnique) {
  Rng rng(23);
  std::vector<int> items(50);
  for (int i = 0; i < 50; ++i) items[static_cast<size_t>(i)] = i;
  const std::vector<int> sample = rng.SampleWithoutReplacement(items, 10);
  ASSERT_EQ(sample.size(), 10u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementCapsAtSize) {
  Rng rng(29);
  std::vector<int> items = {1, 2, 3};
  EXPECT_EQ(rng.SampleWithoutReplacement(items, 10).size(), 3u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Fork();
  // Child and parent should diverge immediately.
  EXPECT_NE(parent.NextUint64(), child.NextUint64());
}

// ---------------------------------------------------------- string_util.

TEST(StringUtilTest, SplitDropsEmptyPieces) {
  EXPECT_EQ(SplitString("a,,b,", ','),
            (std::vector<std::string>{"a", "b"}));
}

TEST(StringUtilTest, SplitKeepEmptyPreservesStructure) {
  EXPECT_EQ(SplitStringKeepEmpty("a,,b,", ','),
            (std::vector<std::string>{"a", "", "b", ""}));
}

TEST(StringUtilTest, SplitSingleToken) {
  EXPECT_EQ(SplitString("token", ','),
            (std::vector<std::string>{"token"}));
}

TEST(StringUtilTest, JoinRoundTrips) {
  const std::vector<std::string> pieces = {"x", "y", "z"};
  EXPECT_EQ(JoinStrings(pieces, ", "), "x, y, z");
  EXPECT_EQ(JoinStrings({}, ", "), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("ultrawiki", "ultra"));
  EXPECT_FALSE(StartsWith("ultra", "ultrawiki"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

// ------------------------------------------------------------------ Env.

TEST(EnvIntTest, ParseIntStrictRejectsSuffixesAndGarbage) {
  EXPECT_EQ(ParseIntStrict("64"), 64);
  EXPECT_EQ(ParseIntStrict("-3"), -3);
  EXPECT_EQ(ParseIntStrict("+7"), 7);
  EXPECT_EQ(ParseIntStrict("0"), 0);
  // atoi would accept all of these; the strict parser must not.
  EXPECT_FALSE(ParseIntStrict("64k").has_value());
  EXPECT_FALSE(ParseIntStrict("6 4").has_value());
  EXPECT_FALSE(ParseIntStrict(" 64").has_value());
  EXPECT_FALSE(ParseIntStrict("64 ").has_value());
  EXPECT_FALSE(ParseIntStrict("").has_value());
  EXPECT_FALSE(ParseIntStrict("-").has_value());
  EXPECT_FALSE(ParseIntStrict("0x10").has_value());
  EXPECT_FALSE(ParseIntStrict("99999999999999999999").has_value());
}

TEST(EnvIntTest, ParseDoubleStrictRejectsSuffixesAndNonFinite) {
  EXPECT_EQ(ParseDoubleStrict("0.12"), 0.12);
  EXPECT_EQ(ParseDoubleStrict("1"), 1.0);
  EXPECT_EQ(ParseDoubleStrict("-2.5e-1"), -0.25);
  // atof reads "0.12x" as 0.12 and the rest as 0.0; none may parse here.
  for (const char* bad : {"0.12x", "", "abc", "inf", "nan", " 0.12",
                          "0.12 ", "1e999"}) {
    EXPECT_FALSE(ParseDoubleStrict(bad).has_value()) << bad;
  }
}

TEST(EnvIntTest, ParsePortStrictRejectsSuffixesAndOutOfRange) {
  EXPECT_EQ(ParsePortStrict("0"), 0);
  EXPECT_EQ(ParsePortStrict("8080"), 8080);
  EXPECT_EQ(ParsePortStrict("65535"), 65535);
  for (const char* bad : {"80x", "", "-1", "65536", " 80"}) {
    EXPECT_FALSE(ParsePortStrict(bad).has_value()) << bad;
  }
}

TEST(EnvIntTest, EnvIntFallsBackLoudlyOnBadValues) {
  constexpr const char* kKnob = "UW_TEST_INT_KNOB";
  ::unsetenv(kKnob);
  EXPECT_EQ(EnvInt(kKnob, 42, 0), 42);
  ::setenv(kKnob, "64", 1);
  EXPECT_EQ(EnvInt(kKnob, 42, 0), 64);
  // "64k" must not silently become 64 — that is the atoi bug this
  // replaces.
  ::setenv(kKnob, "64k", 1);
  EXPECT_EQ(EnvInt(kKnob, 42, 0), 42);
  ::setenv(kKnob, "garbage", 1);
  EXPECT_EQ(EnvInt(kKnob, 42, 0), 42);
  // Below the floor is rejected, not clamped.
  ::setenv(kKnob, "1", 1);
  EXPECT_EQ(EnvInt(kKnob, 42, 8), 42);
  ::unsetenv(kKnob);
}

TEST(EnvFlagTest, TruthinessAndWarnings) {
  constexpr const char* kKnob = "UW_TEST_FLAG_KNOB";
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  // A null value means the knob is unset.
  struct Case {
    const char* value;
    bool on;
    bool warns;
  };
  for (const Case& c : {Case{nullptr, false, false}, Case{"", false, false},
                        Case{"0", false, false}, Case{"1", true, false},
                        Case{"false", true, true}}) {
    const std::string label = c.value != nullptr ? c.value : "(unset)";
    if (c.value != nullptr) {
      ::setenv(kKnob, c.value, 1);
    } else {
      ::unsetenv(kKnob);
    }
    testing::internal::CaptureStderr();
    EXPECT_EQ(EnvFlag(kKnob), c.on) << label;
    const std::string logged = testing::internal::GetCapturedStderr();
    if (c.warns) {
      // Exactly one warning, naming the knob and its value.
      const std::string named = std::string(kKnob) + "=" + c.value;
      const size_t at = logged.find(named);
      EXPECT_NE(at, std::string::npos) << logged;
      EXPECT_EQ(logged.find(named, at + 1), std::string::npos) << logged;
    } else {
      EXPECT_EQ(logged, "") << label;
    }
  }
  ::unsetenv(kKnob);
  SetLogLevel(saved);
}

TEST(FlagValueTest, FirstMatchWins) {
  char prog[] = "prog";
  char port[] = "--port=80";
  char again[] = "--port=90";
  char bare[] = "--k";
  char other[] = "--portx=7";
  char* argv[] = {prog, port, again, bare, other};
  constexpr int argc = 5;
  EXPECT_EQ(FlagValue(argc, argv, "port", "0"), "80");  // repeated: first
  EXPECT_EQ(FlagValue(argc, argv, "k", "20"), "20");    // no '=': absent
  EXPECT_EQ(FlagValue(argc, argv, "host", "h"), "h");   // absent
  EXPECT_EQ(FlagValue(argc, argv, "portx", ""), "7");
  // argv[0] is the program name, never a flag.
  char flag_as_prog[] = "--port=1";
  char* only_prog[] = {flag_as_prog};
  EXPECT_EQ(FlagValue(1, only_prog, "port", "0"), "0");
}

TEST(WritePortFileTest, WritesPortOnlyWhenAsked) {
  constexpr const char* kKnob = "UW_TEST_PORT_FILE";
  const std::string path =
      testing::TempDir() + "uw_port_file_" + std::to_string(::getpid());
  std::remove(path.c_str());
  ::unsetenv(kKnob);
  WritePortFile(kKnob, 1234, "test");
  EXPECT_NE(::access(path.c_str(), F_OK), 0);

  ::setenv(kKnob, path.c_str(), 1);
  WritePortFile(kKnob, 1234, "test");
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char buf[16] = {};
  const size_t got = std::fread(buf, 1, sizeof(buf) - 1, file);
  std::fclose(file);
  EXPECT_EQ(std::string(buf, got), "1234\n");
  std::remove(path.c_str());

  const std::string unwritable = path + "/missing/dir";
  ::setenv(kKnob, unwritable.c_str(), 1);
  testing::internal::CaptureStderr();
  WritePortFile(kKnob, 1234, "test");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[test] cannot write UW_TEST_PORT_FILE " + unwritable + "\n");
  ::unsetenv(kKnob);
}

// --------------------------------------------------------- TablePrinter.

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table("title");
  table.SetHeader({"a", "bb"});
  table.AddRow({"1", "2"});
  table.AddRow({"333", "4"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("| 333 |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TablePrinterTest, SeparatorAddsLine) {
  TablePrinter table;
  table.SetHeader({"x"});
  table.AddRow({"1"});
  table.AddSeparator();
  table.AddRow({"2"});
  const std::string out = table.ToString();
  // Header line + top/bottom + separator = at least 4 dashed lines.
  size_t dashes = 0;
  for (size_t pos = out.find("+-"); pos != std::string::npos;
       pos = out.find("+-", pos + 1)) {
    ++dashes;
  }
  EXPECT_GE(dashes, 4u);
}

TEST(TablePrinterDeathTest, RowWidthMustMatchHeader) {
  TablePrinter table;
  table.SetHeader({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "Check failed");
}

// -------------------------------------------------------------- Logging.

TEST(LoggingTest, LevelRoundTrips) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(before);
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(UW_CHECK_EQ(1, 2) << "boom", "Check failed");
}

TEST(LoggingTest, CheckOkPassesOnOkStatus) {
  UW_CHECK_OK(Status::Ok());  // must not abort
  SUCCEED();
}

}  // namespace
}  // namespace ultrawiki
