#include "src/common/flags.h"

#include <gtest/gtest.h>

namespace affsched {
namespace {

FlagSet MakeSet() {
  FlagSet flags("test program");
  flags.AddInt("procs", 16, "number of processors");
  flags.AddDouble("precision", 0.02, "CI precision");
  flags.AddBool("verbose", false, "chatty output");
  flags.AddString("policy", "dyn-aff", "policy name");
  return flags;
}

bool ParseArgs(FlagSet& flags, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, DefaultsApplyWithoutArgs) {
  FlagSet flags = MakeSet();
  EXPECT_TRUE(ParseArgs(flags, {}));
  EXPECT_EQ(flags.GetInt("procs"), 16);
  EXPECT_DOUBLE_EQ(flags.GetDouble("precision"), 0.02);
  EXPECT_FALSE(flags.GetBool("verbose"));
  EXPECT_EQ(flags.GetString("policy"), "dyn-aff");
}

TEST(FlagsTest, EqualsSyntax) {
  FlagSet flags = MakeSet();
  EXPECT_TRUE(ParseArgs(flags, {"--procs=8", "--precision=0.01", "--policy=equi"}));
  EXPECT_EQ(flags.GetInt("procs"), 8);
  EXPECT_DOUBLE_EQ(flags.GetDouble("precision"), 0.01);
  EXPECT_EQ(flags.GetString("policy"), "equi");
}

TEST(FlagsTest, SpaceSyntax) {
  FlagSet flags = MakeSet();
  EXPECT_TRUE(ParseArgs(flags, {"--procs", "4"}));
  EXPECT_EQ(flags.GetInt("procs"), 4);
}

TEST(FlagsTest, BareBoolean) {
  FlagSet flags = MakeSet();
  EXPECT_TRUE(ParseArgs(flags, {"--verbose"}));
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagsTest, ExplicitBooleanValues) {
  FlagSet flags = MakeSet();
  EXPECT_TRUE(ParseArgs(flags, {"--verbose=true"}));
  EXPECT_TRUE(flags.GetBool("verbose"));
  FlagSet flags2 = MakeSet();
  EXPECT_TRUE(ParseArgs(flags2, {"--verbose=0"}));
  EXPECT_FALSE(flags2.GetBool("verbose"));
}

TEST(FlagsTest, HelpRequested) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(ParseArgs(flags, {"--help"}));
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(flags.Help().find("--procs"), std::string::npos);
  EXPECT_NE(flags.Help().find("number of processors"), std::string::npos);
}

TEST(FlagsTest, UnknownFlagFails) {
  for (const char* arg : {"--bogus=1", "--bogus"}) {
    FlagSet flags = MakeSet();
    EXPECT_FALSE(ParseArgs(flags, {arg})) << arg;
    EXPECT_NE(flags.error().find("unknown flag --bogus"), std::string::npos) << arg;
  }
}

TEST(FlagsTest, BadIntegerFails) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(ParseArgs(flags, {"--procs=abc"}));
  EXPECT_NE(flags.error().find("expects an integer"), std::string::npos);
}

TEST(FlagsTest, NumbersAreReadStrictly) {
  // Flags share the spec grammar's reader: the whole value, finite, in range.
  for (const char* arg :
       {"--procs=", "--procs=8x", "--procs= 8", "--procs=+8", "--procs=1.5",
        "--procs=9223372036854775808", "--precision=inf", "--precision=-inf",
        "--precision=nan", "--precision=0.5x", "--precision=1e999", "--precision="}) {
    FlagSet flags = MakeSet();
    EXPECT_FALSE(ParseArgs(flags, {arg})) << arg;
    EXPECT_NE(flags.error().find("expects"), std::string::npos) << arg;
  }
  FlagSet flags = MakeSet();
  EXPECT_TRUE(ParseArgs(flags, {"--procs=-1", "--precision=-2.5e-3"}));
  EXPECT_EQ(flags.GetInt("procs"), -1);  // sign checks belong to the binary
  EXPECT_DOUBLE_EQ(flags.GetDouble("precision"), -2.5e-3);
}

TEST(FlagsTest, BadBooleanFails) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(ParseArgs(flags, {"--verbose=maybe"}));
}

TEST(FlagsTest, MissingValueFails) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(ParseArgs(flags, {"--procs"}));
  EXPECT_NE(flags.error().find("missing a value"), std::string::npos);
}

TEST(FlagsTest, PositionalArgumentFails) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(ParseArgs(flags, {"stray"}));
}

TEST(FlagsDeathTest, WrongTypeAccessAborts) {
  FlagSet flags = MakeSet();
  ParseArgs(flags, {});
  EXPECT_DEATH(flags.GetInt("policy"), "wrong type");
  EXPECT_DEATH(flags.GetBool("never-registered"), "never registered");
}

}  // namespace
}  // namespace affsched
