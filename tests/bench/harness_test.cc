#include "bench/harness.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace harness {
namespace {

// Builds a Bench from `args` (argv[0] included).
Bench MakeBench(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return Bench("bench", static_cast<int>(argv.size()), argv.data());
}

xbase::Status Pass(Fields&, xbase::u64) { return xbase::Status::Ok(); }

TEST(HarnessStatsTest, OddCount) {
  const Stats stats = Summarize({5, 1, 3, 2, 4});
  EXPECT_DOUBLE_EQ(stats.min_ns, 1);
  EXPECT_DOUBLE_EQ(stats.median_ns, 3);
  EXPECT_DOUBLE_EQ(stats.p90_ns, 4.6);  // 0.6 of the way from 4 to 5
}

TEST(HarnessStatsTest, EvenCount) {
  const Stats stats = Summarize({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(stats.min_ns, 1);
  EXPECT_DOUBLE_EQ(stats.median_ns, 2.5);
  EXPECT_DOUBLE_EQ(stats.p90_ns, 3.7);
}

TEST(HarnessStatsTest, OneTrial) {
  const Stats stats = Summarize({7});
  EXPECT_DOUBLE_EQ(stats.min_ns, 7);
  EXPECT_DOUBLE_EQ(stats.median_ns, 7);
  EXPECT_DOUBLE_EQ(stats.p90_ns, 7);
}

TEST(HarnessTimeTest, WarmsUpThenRunsEveryBatch) {
  Bench bench = MakeBench({"bench"});
  int calls = 0;
  xbase::u64 reported = 0;
  bench.Time(
      "count", 3, 4, [&] { ++calls; },
      [&](Fields&, xbase::u64 n) {
        reported = n;
        return xbase::Status::Ok();
      });
  EXPECT_EQ(calls, 13);
  EXPECT_EQ(reported, 13u);
}

TEST(HarnessArgsTest, AcceptsNoFlagsAndJsonPath) {
  MakeBench({"bench"});
  MakeBench({"bench", "--json", "out.json"});
}

TEST(HarnessArgsDeathTest, RejectsUnknownFlag) {
  EXPECT_EXIT(MakeBench({"bench", "--jsn", "x.json"}),
              testing::ExitedWithCode(2), "usage: bench \\[--json PATH\\]");
}

TEST(HarnessArgsDeathTest, RejectsJsonWithoutPath) {
  EXPECT_EXIT(MakeBench({"bench", "--json"}), testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(MakeBench({"bench", "--json", ""}), testing::ExitedWithCode(2),
              "usage");
}

TEST(HarnessCheckDeathTest, FailedCheckExitsBeforeTheGates) {
  EXPECT_EXIT(
      {
        Bench bench = MakeBench({"bench"});
        bench.Time(
            "wrong-r0", 1, 1, [] {},
            [](Fields&, xbase::u64) { return xbase::Internal("r0 1"); });
        bench.Gate("never", "min", 0, 0, true);
        std::exit(bench.Finish());
      },
      testing::ExitedWithCode(1), "FAIL — case wrong-r0: r0 1");
}

TEST(HarnessGateTest, FinishReportsTheGates) {
  Bench passing = MakeBench({"bench"});
  passing.Gate("ok", "min", 1, 2, true);
  EXPECT_EQ(passing.Finish(), 0);
  Bench failing = MakeBench({"bench"});
  failing.Gate("ok", "min", 1, 2, true);
  failing.Gate("bad", "min", 3, 2, false);
  EXPECT_EQ(failing.Finish(), 1);
}

TEST(HarnessJsonTest, QuoteEscapes) {
  EXPECT_EQ(Quote("plain"), "\"plain\"");
  EXPECT_EQ(Quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(Quote("tab\there\n\x01"), "\"tab\\u0009here\\u000a\\u0001\"");
}

TEST(HarnessJsonTest, NumbersReadBackExactly) {
  EXPECT_EQ(Json(0.5).text(), "0.5");
  EXPECT_EQ(Json(4535333676412781.0).text(), "4535333676412781");
  EXPECT_EQ(Json(0.0 / 0.0).text(), "null");
  EXPECT_EQ(Json(xbase::u64{18446744073709551615ull}).text(),
            "18446744073709551615");
  EXPECT_EQ(Json(true).text(), "true");
  EXPECT_EQ(Json(Fields{{"k", 1}, {"s", "v"}}).text(),
            "{\"k\": 1, \"s\": \"v\"}");
}

TEST(HarnessJsonTest, FileCarriesEscapedCaseNamesAndTheSchema) {
  const std::string path = testing::TempDir() + "harness_test.json";
  Bench bench = MakeBench({"bench", "--json", path});
  bench.Time("say \"hi\"\\now", 1, 1, [] {}, Pass);
  bench.Row({{"rows", 1}});
  bench.Gate("g", "min", 1, 2, true);
  ASSERT_EQ(bench.Finish(), 0);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  EXPECT_NE(json.find("\"name\": \"say \\\"hi\\\"\\\\now\""),
            std::string::npos)
      << json;
  for (const char* key : {"\"bench\": \"bench\"", "\"host\": {\"nproc\"",
                          "\"cases\": [", "\"rows\": [", "\"gates\": [",
                          "\"stat\": \"min\"", "\"gate_passed\": true"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

}  // namespace
}  // namespace harness
