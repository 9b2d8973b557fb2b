// Content-addressed, crash-safe result cache for sweep cells.
//
// One entry per simulated cell, stored as `<dir>/<cellkey>.cell` — a single
// JSON object encoding the cell's RunResult exactly (SimTime as integer
// nanoseconds, doubles via ExactDouble, so a decoded result is bit-identical
// to the one simulated). The key (see spec_canon.h) covers the simulator git
// revision and the entry schema version, so a stale build's entries are
// simply unreachable, never misread.
//
// Crash safety is the point of this store: entries are written to a
// temporary file and published with rename(2), which is atomic on POSIX
// filesystems — a reader sees either no entry or a complete one. If a
// process is killed *between* cells, the completed cells' entries survive
// and the next submission of the same spec resumes from them. If an entry is
// somehow corrupt anyway (torn disk, manual truncation), the strict JSON
// decode fails, the probe reports a miss, the corrupt file is deleted, and
// the cell is re-simulated — corruption can cost work, never correctness.
//
// Capacity: with max_bytes set, each store may evict least-recently-used
// entries (probe hits refresh an entry's mtime) until the directory fits.
// The entry just written is exempt so one oversized store cannot evict
// itself into a permanent miss loop.
//
// Thread-safety: Probe and Store may be called concurrently (the runner's
// worker threads store while its orchestration thread probes); stats are
// atomics and the eviction scan is serialized by a mutex.

#ifndef SRC_SERVE_RESULT_CACHE_H_
#define SRC_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/measure/experiment.h"

namespace affsched {

struct ResultCacheOptions {
  std::string dir;
  // Soft size budget in bytes; 0 = unbounded. Enforced after each store.
  uint64_t max_bytes = 0;
};

struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t corrupt = 0;  // entries present but undecodable (counted as misses too)
  uint64_t stores = 0;
  uint64_t store_errors = 0;
  uint64_t evictions = 0;
};

// Identity recorded inside an entry, for human inspection. Not
// authoritative — the key is.
struct CellEntryMeta {
  std::string policy;  // CLI name
  int mix = 0;
  std::size_t replication = 0;
  uint64_t seed = 0;
};

class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options);

  // False when the cache directory could not be created; every operation on
  // a bad cache is a no-op miss.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  const std::string& dir() const { return options_.dir; }

  // Looks up `key`. On a hit, decodes the entry into `out` (bit-identical to
  // the stored RunResult) and refreshes the entry's LRU clock. A present but
  // undecodable entry is deleted and reported as a miss.
  bool Probe(const std::string& key, RunResult* out);

  // Atomically publishes an entry (write temp + rename), then enforces the
  // size budget. Returns false only on I/O failure.
  bool Store(const std::string& key, const CellEntryMeta& meta, const RunResult& result);

  // Directory scan: entries currently present / their total size.
  std::size_t EntryCount() const;
  uint64_t TotalBytes() const;

  ResultCacheStats stats() const;

  // Cache stats as one JSON object (entries/bytes from a directory scan,
  // counters from this process's lifetime).
  std::string StatsJson() const;

  // Entry codec, exposed for tests. Decode is strict: any parse failure,
  // schema mismatch, or missing field returns false.
  static std::string EncodeEntry(const std::string& key, const CellEntryMeta& meta,
                                 const RunResult& result);
  static bool DecodeEntry(const std::string& text, RunResult* out, CellEntryMeta* meta = nullptr);

  static std::string EntryFileName(const std::string& key) { return key + ".cell"; }

 private:
  void EvictOverBudget(const std::string& keep_key);

  ResultCacheOptions options_;
  bool ok_ = false;
  std::string error_;
  std::mutex evict_mu_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> corrupt_{0};
  std::atomic<uint64_t> stores_{0};
  std::atomic<uint64_t> store_errors_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace affsched

#endif  // SRC_SERVE_RESULT_CACHE_H_
