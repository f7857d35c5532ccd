#include "common/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace tdmd {
namespace {

std::vector<const char*> Argv(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args);
  return argv;
}

TEST(ArgParserTest, DefaultsSurviveWhenUnset) {
  ArgParser parser("prog", "test");
  const auto* k = parser.AddInt("k", 8, "budget");
  const auto* lambda = parser.AddDouble("lambda", 0.5, "ratio");
  const auto* verbose = parser.AddBool("verbose", false, "chatty");
  const auto* name = parser.AddString("name", "tree", "topology");
  auto argv = Argv({});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*k, 8);
  EXPECT_DOUBLE_EQ(*lambda, 0.5);
  EXPECT_FALSE(*verbose);
  EXPECT_EQ(*name, "tree");
}

TEST(ArgParserTest, IsDefaultComparesValuesNotPresence) {
  ArgParser parser("prog", "test");
  parser.AddInt("k", 8, "budget");
  parser.AddInt("threads", 2, "workers");
  parser.AddDouble("lambda", 0.5, "ratio");
  parser.AddBool("async", false, "pool");
  parser.AddString("partition", "bfs", "method");
  parser.AddString("out", "", "path");
  auto argv = Argv({"--k=9", "--threads=2", "--lambda=0.50", "--async",
                    "--partition=spatial"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_FALSE(parser.IsDefault("k"));
  EXPECT_TRUE(parser.IsDefault("threads"));  // given, but the default
  EXPECT_TRUE(parser.IsDefault("lambda"));
  EXPECT_FALSE(parser.IsDefault("async"));
  EXPECT_FALSE(parser.IsDefault("partition"));
  EXPECT_TRUE(parser.IsDefault("out"));  // absent
}

TEST(ArgParserTest, EqualsSyntax) {
  ArgParser parser("prog", "test");
  const auto* k = parser.AddInt("k", 0, "budget");
  const auto* lambda = parser.AddDouble("lambda", 0.0, "ratio");
  auto argv = Argv({"--k=12", "--lambda=0.25"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*k, 12);
  EXPECT_DOUBLE_EQ(*lambda, 0.25);
}

TEST(ArgParserTest, SpaceSeparatedSyntax) {
  ArgParser parser("prog", "test");
  const auto* k = parser.AddInt("k", 0, "budget");
  auto argv = Argv({"--k", "7"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*k, 7);
}

TEST(ArgParserTest, BareBoolFlagSetsTrue) {
  ArgParser parser("prog", "test");
  const auto* verbose = parser.AddBool("verbose", false, "chatty");
  auto argv = Argv({"--verbose"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(*verbose);
}

TEST(ArgParserTest, ExplicitBoolValues) {
  ArgParser parser("prog", "test");
  const auto* a = parser.AddBool("a", false, "x");
  const auto* b = parser.AddBool("b", true, "x");
  auto argv = Argv({"--a=true", "--b=false"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(*a);
  EXPECT_FALSE(*b);
}

TEST(ArgParserTest, PositionalArgumentsCollected) {
  ArgParser parser("prog", "test");
  parser.AddInt("k", 0, "budget");
  auto argv = Argv({"alpha", "--k=3", "beta"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "alpha");
  EXPECT_EQ(parser.positional()[1], "beta");
}

TEST(ArgParserTest, NegativeNumbersParse) {
  ArgParser parser("prog", "test");
  const auto* k = parser.AddInt("k", 0, "budget");
  const auto* x = parser.AddDouble("x", 0.0, "value");
  auto argv = Argv({"--k=-5", "--x=-2.5"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(*k, -5);
  EXPECT_DOUBLE_EQ(*x, -2.5);
}

TEST(ArgParserTest, UsageListsFlags) {
  ArgParser parser("prog", "my description");
  parser.AddInt("k", 8, "the budget");
  const std::string usage = parser.Usage();
  EXPECT_NE(usage.find("my description"), std::string::npos);
  EXPECT_NE(usage.find("--k"), std::string::npos);
  EXPECT_NE(usage.find("the budget"), std::string::npos);
  EXPECT_NE(usage.find("default: 8"), std::string::npos);
}

TEST(ArgParserTest, BoundedIntChecksTheRange) {
  ArgParser parser("prog", "test");
  parser.AddInt("k", 8, "budget");
  parser.AddInt("epochs", 20, "epochs");
  parser.AddInt("threads", 2, "workers");
  auto argv = Argv({"--k=-1", "--threads=100000"});
  parser.Parse(static_cast<int>(argv.size()), argv.data());
  const std::int64_t unbounded = std::numeric_limits<std::int64_t>::max();
  std::string error;
  EXPECT_EQ(parser.BoundedInt("epochs", 0, unbounded, &error), 20);
  EXPECT_EQ(parser.BoundedInt("epochs", 20, 20, &error), 20);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(parser.BoundedInt("k", 1, unbounded, &error), std::nullopt);
  EXPECT_EQ(error, "--k=-1 is below its minimum 1");
  EXPECT_EQ(parser.BoundedInt("threads", 1, 256, &error), std::nullopt);
  EXPECT_EQ(error, "--threads=100000 is outside [1, 256]");
}

TEST(ArgParserDeathTest, BoundedIntOnAnUnknownFlagExits) {
  ArgParser parser("prog", "test");
  parser.AddDouble("lambda", 0.5, "ratio");
  std::string error;
  EXPECT_EXIT(parser.BoundedInt("lambda", 0, 1, &error),
              testing::ExitedWithCode(2), "non-int flag --lambda");
}

TEST(ArgParserDeathTest, UnknownFlagExits) {
  ArgParser parser("prog", "test");
  auto argv = Argv({"--nonexistent=1"});
  EXPECT_EXIT(parser.Parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "unknown flag");
}

TEST(ArgParserDeathTest, MalformedValueExits) {
  ArgParser parser("prog", "test");
  parser.AddInt("k", 0, "budget");
  auto argv = Argv({"--k=abc"});
  EXPECT_EXIT(parser.Parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "could not parse");
}

TEST(ArgParserDeathTest, MissingValueExits) {
  ArgParser parser("prog", "test");
  parser.AddInt("k", 0, "budget");
  auto argv = Argv({"--k"});
  EXPECT_EXIT(parser.Parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "expects a value");
}

}  // namespace
}  // namespace tdmd
