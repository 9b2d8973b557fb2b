#include "src/telemetry/manifest.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/telemetry/json.h"
#include "tests/serve/json_testing.h"

namespace affsched {
namespace {

TEST(Json, EscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
}

TEST(Json, NumberFormatsIntegralsWithoutFraction) {
  EXPECT_EQ(JsonNumber(42.0), "42");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
  EXPECT_EQ(JsonNumber(0.0), "0");
}

TEST(Json, NumberNeverEmitsNonFiniteLiterals) {
  EXPECT_EQ(JsonNumber(NAN), "null");
  EXPECT_EQ(JsonNumber(INFINITY), "null");
  EXPECT_EQ(JsonNumber(-INFINITY), "null");
  EXPECT_TRUE(ParsesAsJson(JsonNumber(0.1)));
}

TEST(RunManifest, IncludesBuildMetadataAndIsValidJson) {
  RunManifest manifest;
  const std::string json = manifest.ToJson();
  EXPECT_TRUE(ParsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"build_type\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\""), std::string::npos);
  EXPECT_STRNE(RunManifest::GitSha(), "");
}

TEST(RunManifest, MembersAndMetricsEmbed) {
  RunManifest manifest;
  manifest.SetString("tool", "test \"quoted\"");
  manifest.SetNumber("seed", 42.0);
  MetricsRegistry registry;
  registry.FindOrCreateCounter("engine.dispatches")->Add(7.0);
  manifest.AddMetrics(registry);

  const std::string json = manifest.ToJson();
  EXPECT_TRUE(ParsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("engine.dispatches"), std::string::npos);
}

TEST(RunManifest, SetUintRoundTripsFull64BitRange) {
  // SetNumber goes through double, which silently rounds above 2^53; seeds
  // must survive exactly, so they go in as decimal integer text.
  RunManifest manifest;
  const uint64_t seed = 9223372036854775815ull;  // 2^63 + 7
  manifest.SetUint("seed", seed);
  const std::string json = manifest.ToJson();
  EXPECT_TRUE(ParsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"seed\":9223372036854775815"), std::string::npos) << json;
}

TEST(RunManifest, SetProvenanceRecordsGitRevHostnameAndArgv) {
  RunManifest manifest;
  const char* argv[] = {"simctl", "--mix=5", "--policy=dyn-aff"};
  manifest.SetProvenance(3, argv);
  const std::string json = manifest.ToJson();
  EXPECT_TRUE(ParsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"git_rev\":\"" + std::string(RunManifest::GitSha()) + "\""),
            std::string::npos);
  // Hostname is host-specific but must be present and non-empty.
  EXPECT_NE(json.find("\"hostname\":\""), std::string::npos);
  EXPECT_EQ(json.find("\"hostname\":\"\""), std::string::npos);
  // The command line round-trips verbatim as a JSON array.
  EXPECT_NE(json.find("\"argv\":[\"simctl\",\"--mix=5\",\"--policy=dyn-aff\"]"),
            std::string::npos);
}

TEST(RunManifest, WriteFileProducesParseableFile) {
  const std::string path = ::testing::TempDir() + "/manifest_test_out.json";
  RunManifest manifest;
  manifest.SetString("tool", "manifest_test");
  ASSERT_TRUE(manifest.WriteFile(path));

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(ParsesAsJson(buffer.str()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace affsched
