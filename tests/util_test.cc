#include <gtest/gtest.h>

#include <cstdlib>

#include "util/env.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table_writer.h"
#include "util/timer.h"

namespace rdd {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(StrFormat("%.2f%%", 81.75), "81.75%");
  EXPECT_EQ(StrFormat("%s", "plain"), "plain");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, LongOutput) {
  const std::string long_str(500, 'x');
  EXPECT_EQ(StrFormat("%s!", long_str.c_str()), long_str + "!");
}

TEST(StrJoinTest, JoinsWithSeparator) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({"solo"}, ", "), "solo");
  EXPECT_EQ(StrJoin({}, ", "), "");
}

TEST(StrSplitTest, SplitsKeepingEmptyFields) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit(",x,", ','), (std::vector<std::string>{"", "x", ""}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(FormatDoubleTest, RoundsToDigits) {
  EXPECT_EQ(FormatDouble(81.849, 1), "81.8");
  EXPECT_EQ(FormatDouble(81.85, 0), "82");
  EXPECT_EQ(FormatDouble(-0.5, 2), "-0.50");
}

TEST(TableWriterTest, RendersAlignedTable) {
  TableWriter table({"Models", "Cora"});
  table.AddRow({"GCN", "81.8"});
  table.AddRow({"RDD(Ensemble)", "86.1"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("| Models"), std::string::npos);
  EXPECT_NE(out.find("| GCN "), std::string::npos);
  EXPECT_NE(out.find("86.1"), std::string::npos);
  // Every line has equal width.
  size_t width = out.find('\n');
  size_t pos = 0;
  while (pos < out.size()) {
    const size_t next = out.find('\n', pos);
    EXPECT_EQ(next - pos, width);
    pos = next + 1;
  }
}

TEST(TableWriterTest, SeparatorRows) {
  TableWriter table({"A"});
  table.AddRow({"1"});
  table.AddSeparator();
  table.AddRow({"2"});
  EXPECT_EQ(table.num_rows(), 2u);
  const std::string out = table.Render();
  // 6 lines of content + 3 rules + separator = rule count 4.
  int rules = 0;
  for (size_t pos = 0; (pos = out.find("+--", pos)) != std::string::npos;
       ++pos) {
    ++rules;
  }
  EXPECT_EQ(rules, 4);
}

TEST(TableWriterTest, CsvRendering) {
  TableWriter table({"a", "b"});
  table.AddRow({"1", "2"});
  table.AddSeparator();  // Skipped in CSV.
  table.AddRow({"3", "4"});
  EXPECT_EQ(table.RenderCsv(), "a,b\n1,2\n3,4\n");
}

TEST(TableWriterDeathTest, WrongCellCountAborts) {
  TableWriter table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only one"}), "Check failed");
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<double>(i);
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  EXPECT_NEAR(timer.ElapsedMillis(), timer.ElapsedSeconds() * 1e3,
              timer.ElapsedMillis() * 0.5 + 1.0);
}

TEST(TimerTest, RestartResets) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<double>(i);
  const double before = timer.ElapsedSeconds();
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), before + 1e-3);
}

TEST(LoggingTest, LevelFiltering) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  RDD_LOG(Info) << "should be suppressed";  // Must not crash.
  SetLogLevel(original);
}

TEST(LoggingDeathTest, CheckMacroAborts) {
  EXPECT_DEATH(RDD_CHECK(1 == 2) << "custom message",
               "Check failed: 1 == 2 custom message");
}

TEST(LoggingDeathTest, CheckOpPrintsOperands) {
  const int a = 3;
  const int b = 5;
  EXPECT_DEATH(RDD_CHECK_EQ(a, b), "\\(3 vs 5\\)");
  EXPECT_DEATH(RDD_CHECK_GT(a, b), "Check failed");
}

TEST(LoggingTest, CheckPassesSilently) {
  RDD_CHECK(true);
  RDD_CHECK_EQ(1, 1);
  RDD_CHECK_LE(1, 2);
  RDD_CHECK_GE(2, 2);
  RDD_CHECK_NE(1, 2);
  RDD_CHECK_LT(1, 2);
}

TEST(EnvTest, ParseBoolAcceptsDocumentedSpellings) {
  for (const char* truthy : {"1", "true", "TRUE", "True", "on", "yes", "YES"}) {
    EXPECT_TRUE(env::ParseBool(truthy, false)) << truthy;
  }
  for (const char* falsy : {"0", "false", "FALSE", "off", "no", "Off"}) {
    EXPECT_FALSE(env::ParseBool(falsy, true)) << falsy;
  }
}

TEST(EnvTest, ParseBoolFallsBackOnUnsetEmptyOrGarbage) {
  EXPECT_TRUE(env::ParseBool(nullptr, true));
  EXPECT_FALSE(env::ParseBool(nullptr, false));
  EXPECT_TRUE(env::ParseBool("", true));
  EXPECT_TRUE(env::ParseBool("ture", true));
  EXPECT_FALSE(env::ParseBool("2", false));
  EXPECT_FALSE(env::ParseBool("enabled", false));
}

TEST(EnvTest, ParseBoolReportsRecognition) {
  bool recognized = false;
  env::ParseBool("yes", false, &recognized);
  EXPECT_TRUE(recognized);
  env::ParseBool(nullptr, false, &recognized);
  EXPECT_TRUE(recognized);  // Unset is the documented default state.
  env::ParseBool("ture", false, &recognized);
  EXPECT_FALSE(recognized);
}

TEST(EnvTest, BoolEnvReadsTheEnvironment) {
  ASSERT_EQ(setenv("RDD_ENV_TEST_FLAG", "yes", 1), 0);
  EXPECT_TRUE(env::BoolEnv("RDD_ENV_TEST_FLAG", false));
  ASSERT_EQ(setenv("RDD_ENV_TEST_FLAG", "0", 1), 0);
  EXPECT_FALSE(env::BoolEnv("RDD_ENV_TEST_FLAG", true));
  ASSERT_EQ(unsetenv("RDD_ENV_TEST_FLAG"), 0);
  EXPECT_TRUE(env::BoolEnv("RDD_ENV_TEST_FLAG", true));
}

TEST(EnvTest, ParseIntParsesAndClamps) {
  EXPECT_EQ(env::ParseInt("7", 3, 1, 100), 7);
  EXPECT_EQ(env::ParseInt(nullptr, 3, 1, 100), 3);
  EXPECT_EQ(env::ParseInt("", 3, 1, 100), 3);
  EXPECT_EQ(env::ParseInt("abc", 3, 1, 100), 3);
  EXPECT_EQ(env::ParseInt("7x", 3, 1, 100), 3);
  EXPECT_EQ(env::ParseInt("0", 3, 1, 100), 1);
  EXPECT_EQ(env::ParseInt("-5", 3, 1, 100), 1);
  EXPECT_EQ(env::ParseInt("101", 3, 1, 100), 100);
}

TEST(EnvTest, ParseIntClampsWideValuesInsteadOfTruncating) {
  // 2^32 + 1 truncates to 1 through a 32-bit narrowing; the 64-bit parse
  // must clamp it to max instead.
  EXPECT_EQ(env::ParseInt("4294967297", 3, 1, 1024), 1024);
  EXPECT_EQ(env::ParseInt("99999999999999999999999999", 3, 1, 1024), 1024);
  EXPECT_EQ(env::ParseInt("-99999999999999999999999999", 3, 1, 1024), 1);
}

TEST(EnvTest, ParseDoubleParsesClampsAndFallsBack) {
  EXPECT_DOUBLE_EQ(env::ParseDouble("0.25", 0.05, 1e-4, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(env::ParseDouble("5e-2", 0.1, 1e-4, 1.0), 0.05);
  // Unset, empty, garbage, trailing junk, and NaN all keep the fallback.
  EXPECT_DOUBLE_EQ(env::ParseDouble(nullptr, 0.05, 1e-4, 1.0), 0.05);
  EXPECT_DOUBLE_EQ(env::ParseDouble("", 0.05, 1e-4, 1.0), 0.05);
  EXPECT_DOUBLE_EQ(env::ParseDouble("abc", 0.05, 1e-4, 1.0), 0.05);
  EXPECT_DOUBLE_EQ(env::ParseDouble("0.5x", 0.05, 1e-4, 1.0), 0.05);
  EXPECT_DOUBLE_EQ(env::ParseDouble("nan", 0.05, 1e-4, 1.0), 0.05);
  // Finite out-of-range values clamp into [min, max].
  EXPECT_DOUBLE_EQ(env::ParseDouble("0", 0.05, 1e-4, 1.0), 1e-4);
  EXPECT_DOUBLE_EQ(env::ParseDouble("-3.5", 0.05, 1e-4, 1.0), 1e-4);
  EXPECT_DOUBLE_EQ(env::ParseDouble("2.5", 0.05, 1e-4, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(env::ParseDouble("inf", 0.05, 1e-4, 1.0), 1.0);
}

TEST(EnvTest, DoubleEnvReadsTheEnvironment) {
  ASSERT_EQ(setenv("RDD_ENV_TEST_RATIO", "0.125", 1), 0);
  EXPECT_DOUBLE_EQ(env::DoubleEnv("RDD_ENV_TEST_RATIO", 0.05, 1e-4, 1.0),
                   0.125);
  ASSERT_EQ(unsetenv("RDD_ENV_TEST_RATIO"), 0);
  EXPECT_DOUBLE_EQ(env::DoubleEnv("RDD_ENV_TEST_RATIO", 0.05, 1e-4, 1.0),
                   0.05);
}

}  // namespace
}  // namespace rdd
