// Tests for src/common: rng, error macros, formatting, csv, table, logging.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/csv.hpp"
#include "src/common/error.hpp"
#include "src/common/flags.hpp"
#include "src/common/format.hpp"
#include "src/common/logging.hpp"
#include "src/common/rng.hpp"
#include "src/common/table.hpp"

namespace splitmed {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float u = rng.uniform();
    EXPECT_GE(u, 0.0F);
    EXPECT_LT(u, 1.0F);
    const float v = rng.uniform(-2.0F, 3.0F);
    EXPECT_GE(v, -2.0F);
    EXPECT_LT(v, 3.0F);
  }
}

TEST(Rng, UniformU64Unbiased) {
  Rng rng(3);
  // Mean of uniform over [0, 10) across many draws should be near 4.5.
  double acc = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    acc += static_cast<double>(rng.uniform_u64(10));
  }
  EXPECT_NEAR(acc / kDraws, 4.5, 0.1);
}

TEST(Rng, UniformU64RejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_u64(0), InvalidArgument);
}

TEST(Rng, UniformIntCoversBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.05);
  EXPECT_NEAR(sq / kDraws, 1.0, 0.05);
}

TEST(Rng, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3F) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng root(21);
  Rng a = root.split(1);
  Rng b = root.split(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(ErrorMacros, CheckThrowsWithMessage) {
  try {
    SPLITMED_CHECK(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(ErrorMacros, CheckPassesSilently) {
  EXPECT_NO_THROW(SPLITMED_CHECK(true, "never"));
}

TEST(ErrorMacros, MessageCanStartWithVariable) {
  const std::string prefix = "prefix";
  EXPECT_THROW(SPLITMED_CHECK(false, prefix << "-suffix"), InvalidArgument);
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(17), "17 B");
  EXPECT_EQ(format_bytes(1500), "1.50 kB");
  EXPECT_EQ(format_bytes(2'000'000), "2.00 MB");
  EXPECT_EQ(format_bytes(800'000'000), "800.00 MB");
  EXPECT_EQ(format_bytes(1'500'000'000ULL), "1.50 GB");
}

TEST(Format, FixedAndPercent) {
  EXPECT_EQ(format_fixed(0.12345, 3), "0.123");
  EXPECT_EQ(format_percent(0.953, 1), "95.3%");
}

TEST(Format, Duration) {
  EXPECT_EQ(format_duration(0.431), "431 ms");
  EXPECT_EQ(format_duration(2.31), "2.31 s");
  EXPECT_EQ(format_duration(72.0), "1 m 12 s");
}

TEST(Format, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = testing::TempDir() + "/splitmed_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"a", "b,c", "d\"e"});
    csv.write_row({CsvWriter::field(1.5), CsvWriter::field(std::uint64_t{7})});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"d\"\"e\"");
  EXPECT_EQ(line2, "1.5,7");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), Error);
}

TEST(TablePrint, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(TablePrint, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}


TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "--rounds=50", "--model", "vgg-mini",
                        "--verbose", "--alpha", "1.5"};
  Flags flags(7, argv);
  EXPECT_EQ(flags.get_int("rounds", 1), 50);
  EXPECT_EQ(flags.get_string("model", "x"), "vgg-mini");
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 1.5);
  EXPECT_NO_THROW(flags.validate_no_unknown());
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_EQ(flags.get_int("rounds", 7), 7);
  EXPECT_EQ(flags.get_string("model", "mlp"), "mlp");
  EXPECT_FALSE(flags.get_bool("verbose", false));
}

TEST(Flags, RejectsUnknownAndMalformed) {
  const char* argv[] = {"prog", "--typo=1"};
  Flags flags(2, argv);
  EXPECT_EQ(flags.get_int("rounds", 1), 1);
  EXPECT_THROW(flags.validate_no_unknown(), InvalidArgument);

  const char* bad[] = {"prog", "notaflag"};
  EXPECT_THROW(Flags(2, bad), InvalidArgument);

  const char* badint[] = {"prog", "--n=abc"};
  Flags f2(2, badint);
  EXPECT_THROW((void)f2.get_int("n", 0), InvalidArgument);

  const char* badbool[] = {"prog", "--b=maybe"};
  Flags f3(2, badbool);
  EXPECT_THROW((void)f3.get_bool("b", false), InvalidArgument);
}

TEST(Logging, RespectsLevelAndSink) {
  std::ostringstream sink;
  Log::set_sink(&sink);
  Log::set_level(LogLevel::kWarn);
  SPLITMED_LOG(kInfo) << "hidden";
  SPLITMED_LOG(kWarn) << "visible";
  Log::set_sink(nullptr);
  Log::set_level(LogLevel::kWarn);
  EXPECT_EQ(sink.str().find("hidden"), std::string::npos);
  EXPECT_NE(sink.str().find("visible"), std::string::npos);
}

}  // namespace
}  // namespace splitmed
