// Exact set-associative cache simulation.
//
// Each line is tagged with (owner, block). "Owner" identifies a task's address
// space, so two tasks never hit on each other's lines — the behaviour of a
// multiprogrammed machine with per-process virtual addressing. LRU replacement
// within each set.
//
// This model is reference-accurate but too slow to drive multi-second
// scheduling experiments; the experiments use FootprintCache (footprint.h),
// whose ejection dynamics are validated against this class in tests and in
// bench_calibration_cache.

#ifndef SRC_CACHE_EXACT_CACHE_H_
#define SRC_CACHE_EXACT_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cache/geometry.h"

namespace affsched {

// Identifies the address space a cache line belongs to.
using CacheOwner = uint64_t;
inline constexpr CacheOwner kNoOwner = 0;

class ExactCache {
 public:
  explicit ExactCache(const CacheGeometry& geometry);

  struct AccessResult {
    bool hit = false;
    // Line evicted to make room (owner == kNoOwner if none was).
    CacheOwner evicted_owner = kNoOwner;
    uint64_t evicted_block = 0;
  };

  // Accesses block `block` of `owner`'s address space; fills on miss.
  AccessResult Access(CacheOwner owner, uint64_t block);

  // True if the block is currently resident (no state change).
  bool Contains(CacheOwner owner, uint64_t block) const;

  // Invalidates one specific line if present (a remote write under an
  // invalidation-based coherency protocol). Returns true if it was resident.
  bool InvalidateBlock(CacheOwner owner, uint64_t block);

  // Invalidates the whole cache.
  void Flush();

  // Number of lines currently held by `owner` (maintained incrementally).
  size_t ResidentLines(CacheOwner owner) const;

  size_t OccupiedLines() const { return occupied_; }
  const CacheGeometry& geometry() const { return geometry_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  void ResetCounters();

 private:
  struct Line {
    CacheOwner owner = kNoOwner;
    uint64_t block = 0;
    uint64_t lru_stamp = 0;  // larger = more recently used
  };

  size_t SetIndex(uint64_t block) const { return block % geometry_.NumSets(); }
  Line* FindLine(CacheOwner owner, uint64_t block);
  const Line* FindLine(CacheOwner owner, uint64_t block) const;

  CacheGeometry geometry_;
  // lines_[set * ways + way]
  std::vector<Line> lines_;
  std::unordered_map<CacheOwner, size_t> resident_;
  size_t occupied_ = 0;
  uint64_t stamp_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace affsched

#endif  // SRC_CACHE_EXACT_CACHE_H_
