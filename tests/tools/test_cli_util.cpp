#include "cli_util.hpp"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <functional>

#include "frontend.hpp"
#include "obs/event_journal.hpp"
#include "obs/landscape_history.hpp"

namespace botmeter::tools {
namespace {

CliArgs parse(std::vector<const char*> argv,
              std::set<std::string> value_flags = {"--family", "--bots"},
              std::set<std::string> bool_flags = {"--viz"}) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()),
                 const_cast<char**>(argv.data()), std::move(value_flags),
                 std::move(bool_flags));
}

TEST(CliArgsTest, ValuesAndBooleans) {
  const CliArgs args = parse({"--family", "newGoZ", "--viz"});
  EXPECT_EQ(args.value("--family"), "newGoZ");
  EXPECT_TRUE(args.flag("--viz"));
  EXPECT_FALSE(args.value("--bots").has_value());
}

TEST(CliArgsTest, DefaultsApplied) {
  const CliArgs args = parse({"--family", "Ramnit"});
  EXPECT_EQ(args.value_or("--family", "x"), "Ramnit");
  EXPECT_EQ(args.int_or("--bots", 64), 64);
  EXPECT_DOUBLE_EQ(args.double_or("--bots", 1.5), 1.5);
  EXPECT_FALSE(args.flag("--viz"));
}

TEST(CliArgsTest, IntegerParsing) {
  const CliArgs args = parse({"--bots", "128"});
  EXPECT_EQ(args.int_or("--bots", 0), 128);
}

TEST(CliArgsTest, NegativeAndDoubleParsing) {
  const CliArgs args = parse({"--bots", "-3"});
  EXPECT_EQ(args.int_or("--bots", 0), -3);
  const CliArgs d = parse({"--bots", "0.25"});
  EXPECT_DOUBLE_EQ(d.double_or("--bots", 0.0), 0.25);
}

TEST(CliArgsTest, MalformedNumbersRejected) {
  const CliArgs args = parse({"--bots", "many"});
  EXPECT_THROW((void)args.int_or("--bots", 0), ConfigError);
  EXPECT_THROW((void)args.double_or("--bots", 0.0), ConfigError);
}

TEST(CliArgsTest, UnknownArgumentRejected) {
  EXPECT_THROW(parse({"--nope", "1"}), ConfigError);
  EXPECT_THROW(parse({"stray"}), ConfigError);
}

TEST(CliArgsTest, MissingValueRejected) {
  EXPECT_THROW(parse({"--family"}), ConfigError);
}

TEST(CliArgsTest, EmptyCommandLine) {
  const CliArgs args = parse({});
  EXPECT_FALSE(args.flag("--viz"));
  EXPECT_EQ(args.int_or("--bots", 7), 7);
}

CliArgs meter_args(std::vector<const char*> argv) {
  return parse(std::move(argv),
               {"--family", "--config", "--assume-miss", "--first-epoch"});
}

TEST(FrontEndTest, FamilyAndConfigAreExclusiveAndRequired) {
  EXPECT_THROW((void)meter_options(meter_args(
                   {"--family", "newGoZ", "--config", "dga.json"})),
               ConfigError);
  EXPECT_THROW((void)meter_options(meter_args({})), ConfigError);
  EXPECT_EQ(meter_options(meter_args({"--family", "newGoZ"})).meter.dga.name,
            "newGoZ");
}

TEST(FrontEndTest, SlidingWindowPoolsStartAtEpochForty) {
  EXPECT_EQ(meter_options(meter_args({"--family", "Ranbyus"})).first_epoch, 40);
  EXPECT_EQ(meter_options(meter_args({"--family", "newGoZ"})).first_epoch, 0);
  EXPECT_EQ(meter_options(meter_args({"--family", "Ranbyus", "--first-epoch",
                                      "3"}))
                .first_epoch,
            3);
}

TEST(FrontEndTest, AssumedMissRateOnlyWhenGiven) {
  EXPECT_FALSE(meter_options(meter_args({"--family", "newGoZ"}))
                   .meter.assumed_miss_rate.has_value());
  const MeterOptions given = meter_options(
      meter_args({"--family", "newGoZ", "--assume-miss", "0.25"}));
  EXPECT_EQ(given.meter.assumed_miss_rate, 0.25);
}

TEST(FrontEndTest, LandscapeHistoryRouteRejectsBadQueries) {
  const obs::LandscapeHistory history;
  const obs::EventJournal journal;
  const Routes routes = landscape_routes(history, journal, "newGoZ");
  const auto& route = routes.at("/landscape/history");
  EXPECT_EQ(route({"/landscape/history", "from=soon"}).status, 400);
  EXPECT_EQ(route({"/landscape/history", "family=Conficker.C"}).status, 404);
  EXPECT_EQ(route({"/landscape/history", "family=newGoZ&from=0"}).status, 200);
}

TEST(FrontEndTest, LostWritesThrowDataError) {
  // /dev/full accepts the open and fails every write, so a document small
  // enough to sit in the stream buffer is only lost at the flush.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(write_json_file("/dev/full", json::Value(std::string("x")),
                               "checkpoint"),
               DataError);
  EXPECT_THROW(obs::EventJournal().dump("/dev/full"), DataError);
}

TEST(FrontEndTest, UsageOnlyForCommandLineErrors) {
  const auto stderr_of = [](std::vector<const char*> argv,
                            const std::function<int(const CliArgs&)>& body) {
    argv.insert(argv.begin(), "prog");
    ToolSpec spec;
    spec.name = "prog";
    testing::internal::CaptureStderr();
    EXPECT_EQ(run_tool(static_cast<int>(argv.size()),
                       const_cast<char**>(argv.data()), spec, body),
              1);
    return testing::internal::GetCapturedStderr();
  };
  const auto throws = [](auto error) {
    return [error](const CliArgs&) -> int { throw error; };
  };
  EXPECT_EQ(stderr_of({}, throws(DataError("trace line 3: bad timestamp"))),
            "error: trace line 3: bad timestamp\n");
  EXPECT_EQ(stderr_of({}, throws(ConfigError("--servers must be positive")))
                .rfind("error: --servers must be positive\nusage: prog ", 0),
            0u);
  EXPECT_EQ(stderr_of({"--nope"}, throws(DataError("unreached")))
                .rfind("error: unknown argument '--nope'\nusage: prog ", 0),
            0u);
}

}  // namespace
}  // namespace botmeter::tools
