#include "src/serve/result_cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/serve/jsonv.h"

namespace affsched {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/result_cache_test_" + name;
  fs::remove_all(dir);
  return dir;
}

bool HasEntry(const std::string& dir, const std::string& key) {
  std::error_code ec;
  return fs::exists(fs::path(dir) / ResultCache::EntryFileName(key), ec);
}

// A result with every JobStats field populated with awkward values (bit-
// patterns that naive %g formatting would lose), so the round-trip test
// covers the whole encode/decode surface.
RunResult MakeResult(double salt) {
  RunResult result;
  result.makespan = 123456789012345 + static_cast<SimTime>(salt);
  result.events = 987654321;
  for (int j = 0; j < 2; ++j) {
    JobResult job;
    job.app = j == 0 ? "matrix" : "mva";
    job.stats.arrival = 1000 * j;
    job.stats.completion = 123456789012345 + j;
    job.stats.queue_wait_s = 0.1 + salt;
    job.stats.useful_work_s = 1.0 / 3.0 + salt;
    job.stats.reload_stall_s = 0.0625;
    job.stats.steady_stall_s = 1e-9 + salt;
    job.stats.switch_s = 0.30000000000000004;
    job.stats.waste_s = 2.5e-13;
    job.stats.alloc_integral_s = 12345.6789 + salt;
    job.stats.reallocations = 17 + static_cast<uint64_t>(j);
    job.stats.affinity_dispatches = 11;
    for (size_t tier = 0; tier < kNumDistanceTiers; ++tier) {
      job.stats.migrations[tier] = tier + 1;
    }
    result.jobs.push_back(job);
  }
  return result;
}

CellEntryMeta MakeMeta() {
  CellEntryMeta meta;
  meta.policy = "dyn-aff";
  meta.mix = 5;
  meta.replication = 2;
  meta.seed = 0xdeadbeefcafeull;
  return meta;
}

bool BitIdentical(const RunResult& a, const RunResult& b) {
  if (a.makespan != b.makespan || a.events != b.events || a.jobs.size() != b.jobs.size()) {
    return false;
  }
  for (size_t j = 0; j < a.jobs.size(); ++j) {
    if (a.jobs[j].app != b.jobs[j].app) {
      return false;
    }
    // Byte-compare the whole stats block: any drift (an exponent flip, a
    // lost low bit) must fail.
    if (std::memcmp(&a.jobs[j].stats, &b.jobs[j].stats, sizeof(JobStats)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(ResultCacheTest, MissThenHitRoundTripsBitIdentically) {
  const std::string dir = FreshDir("roundtrip");
  ResultCache cache({dir, 0});
  ASSERT_TRUE(cache.ok()) << cache.error();
  const RunResult original = MakeResult(0.0);

  RunResult out;
  EXPECT_FALSE(cache.Probe("00aa", &out));
  EXPECT_TRUE(cache.Store("00aa", MakeMeta(), original));
  CellEntryMeta meta;
  ASSERT_TRUE(cache.Probe("00aa", &out));
  EXPECT_TRUE(BitIdentical(original, out));
  EXPECT_TRUE(HasEntry(dir, "00aa"));
  EXPECT_FALSE(HasEntry(dir, "00ab"));

  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(cache.EntryCount(), 1u);
  EXPECT_GT(cache.TotalBytes(), 0u);
}

TEST(ResultCacheTest, EntryCodecPreservesMeta) {
  const std::string text = ResultCache::EncodeEntry("k1", MakeMeta(), MakeResult(0.0));
  RunResult out;
  CellEntryMeta meta;
  ASSERT_TRUE(ResultCache::DecodeEntry(text, &out, &meta));
  EXPECT_EQ(meta.policy, "dyn-aff");
  EXPECT_EQ(meta.mix, 5);
  EXPECT_EQ(meta.replication, 2u);
  EXPECT_EQ(meta.seed, 0xdeadbeefcafeull);
}

TEST(ResultCacheTest, CorruptEntryIsDeletedAndMisses) {
  const std::string dir = FreshDir("corrupt");
  ResultCache cache({dir, 0});
  ASSERT_TRUE(cache.ok()) << cache.error();
  ASSERT_TRUE(cache.Store("feed", MakeMeta(), MakeResult(0.0)));

  // Truncate the entry as a SIGKILL mid-write (or a torn disk) would.
  const std::string path = dir + "/" + ResultCache::EntryFileName("feed");
  std::string text;
  {
    std::ifstream in(path);
    std::getline(in, text);
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }

  RunResult out;
  EXPECT_FALSE(cache.Probe("feed", &out));       // corrupt -> miss
  EXPECT_FALSE(fs::exists(path));                // ...and the file is gone
  EXPECT_EQ(cache.stats().corrupt, 1u);
  // Re-simulate + re-store: the cell is whole again.
  EXPECT_TRUE(cache.Store("feed", MakeMeta(), MakeResult(0.0)));
  EXPECT_TRUE(cache.Probe("feed", &out));
}

TEST(ResultCacheTest, DecodeRejectsTamperedEntries) {
  RunResult out;
  EXPECT_FALSE(ResultCache::DecodeEntry("", &out));
  EXPECT_FALSE(ResultCache::DecodeEntry("{}", &out));
  EXPECT_FALSE(ResultCache::DecodeEntry("[1,2,3]", &out));
  const std::string good = ResultCache::EncodeEntry("k1", MakeMeta(), MakeResult(0.0));
  EXPECT_TRUE(ResultCache::DecodeEntry(good, &out));
  // Wrong schema version must be unreadable, not misread.
  std::string wrong_schema = good;
  const size_t at = wrong_schema.find("\"entry_schema\":2");
  ASSERT_NE(at, std::string::npos);
  wrong_schema.replace(at, 16, "\"entry_schema\":9");
  EXPECT_FALSE(ResultCache::DecodeEntry(wrong_schema, &out));
  // A missing required field must be unreadable too.
  std::string no_makespan = good;
  const size_t mk = no_makespan.find("\"makespan\"");
  ASSERT_NE(mk, std::string::npos);
  no_makespan.replace(mk, 10, "\"snakespam\"");
  EXPECT_FALSE(ResultCache::DecodeEntry(no_makespan, &out));
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedOverBudget) {
  const std::string dir = FreshDir("evict");
  // Budget fits roughly two entries; the third store must evict the LRU one.
  const std::string one_entry = ResultCache::EncodeEntry("k", MakeMeta(), MakeResult(0.0));
  ResultCache cache({dir, static_cast<uint64_t>(one_entry.size() * 5 / 2)});
  ASSERT_TRUE(cache.ok()) << cache.error();

  ASSERT_TRUE(cache.Store("aaaa", MakeMeta(), MakeResult(1.0)));
  ASSERT_TRUE(cache.Store("bbbb", MakeMeta(), MakeResult(2.0)));
  // Touch "aaaa" so "bbbb" is the least recently used...
  RunResult out;
  fs::last_write_time(dir + "/" + ResultCache::EntryFileName("bbbb"),
                      fs::file_time_type::clock::now() - std::chrono::hours(1));
  ASSERT_TRUE(cache.Probe("aaaa", &out));
  // ...and the next store evicts it, never the entry just written.
  ASSERT_TRUE(cache.Store("cccc", MakeMeta(), MakeResult(3.0)));
  EXPECT_TRUE(HasEntry(dir, "cccc"));
  EXPECT_FALSE(HasEntry(dir, "bbbb"));
  EXPECT_TRUE(HasEntry(dir, "aaaa"));
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.TotalBytes(), one_entry.size() * 5 / 2);
}

TEST(ResultCacheTest, BadDirectoryIsANoOpMiss) {
  ResultCache cache({"/dev/null/not-a-dir", 0});
  EXPECT_FALSE(cache.ok());
  RunResult out;
  EXPECT_FALSE(cache.Probe("k", &out));
  EXPECT_FALSE(cache.Store("k", MakeMeta(), MakeResult(0.0)));
  EXPECT_FALSE(HasEntry("/dev/null/not-a-dir", "k"));
}

TEST(ResultCacheTest, NanResultsAreNotCacheable) {
  ResultCache cache({FreshDir("nan"), 0});
  ASSERT_TRUE(cache.ok()) << cache.error();
  RunResult bad = MakeResult(0.0);
  bad.jobs[0].stats.useful_work_s = std::nan("");
  // ExactDouble renders NaN as null, which the strict decoder rejects: the
  // entry is either never written or never readable. Probe must miss.
  cache.Store("badc", MakeMeta(), bad);
  RunResult out;
  EXPECT_FALSE(cache.Probe("badc", &out));
}

}  // namespace
}  // namespace affsched
