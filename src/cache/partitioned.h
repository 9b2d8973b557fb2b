// Partitioned (colored) cache model — the third substrate behind the
// CacheModel seam, alongside the analytic footprint model and the exact
// per-line simulation.
//
// The cache is divided into `num_colors` equal page-color slices (1..64) and
// every owner carries a reservation mask of the colors it may occupy. The
// working-set dynamics inside a reservation are exactly FootprintCache's —
// buildup curve, set-associative residency cap, random-replacement ejection —
// but evaluated against the *reserved* capacity only:
//
//   * An owner's effective working set is capped by the capacity of its
//     reserved colors, so a tight reservation trades steady-state capacity
//     misses for reload isolation.
//   * Insertions evict only on the colors the insertion can land in. Owners
//     whose reservations are disjoint from the running owner's are untouched
//     — that is the isolation guarantee the rt-color-iso policy buys — while
//     owners sharing colors are charged *interference evictions* explicitly,
//     proportional to the share of their footprint sitting on the contested
//     colors.
//   * A reservation of zero colors is legal and models a job scheduled with
//     no cache allocation at all: every touched block misses (always-cold),
//     nothing becomes resident, and no other owner is disturbed.
//
// With one color and all-ones masks the model reduces term-for-term to
// FootprintCache (pinned by tests/cache/partitioned_test.cc), so the
// partitioned substrate is a strict generalisation of the flat one.
//
// Storage follows FootprintCache: the footprints live in a Residency
// (residency.h). Reservations and per-owner interference totals are indexed
// by owner id (worker ids are dense from 1). Every worker is reserved in
// every cache when it is created (EngineCore::CreateWorker), so the
// reservation table has one entry per worker either way; the index only
// drops the hashing.

#ifndef SRC_CACHE_PARTITIONED_H_
#define SRC_CACHE_PARTITIONED_H_

#include <cstdint>
#include <vector>

#include "src/cache/cache_model.h"
#include "src/cache/residency.h"

namespace affsched {

// A set of reserved cache colors, one bit per color (bit i = color i).
using ColorMask = uint64_t;

inline constexpr ColorMask kAllColors = ~0ull;

// The mask of the first `num_colors` colors.
constexpr ColorMask FullColorMask(size_t num_colors) {
  return num_colors >= 64 ? kAllColors : ((1ull << num_colors) - 1);
}

class PartitionedCacheModel final : public CacheModel {
 public:
  PartitionedCacheModel(double capacity_blocks, size_t ways, size_t num_colors);

  // --- Color reservations ---------------------------------------------------

  // Reserves the colors in `mask` (trimmed to the machine's color count) for
  // `owner`. Owners without an explicit reservation default to all colors,
  // which makes the substrate behave like a (coarser-grained) FootprintCache.
  void ReserveColors(CacheOwner owner, ColorMask mask);

  ColorMask ReservedColors(CacheOwner owner) const;

  size_t num_colors() const { return num_colors_; }

  // Capacity of one color slice, in blocks.
  double ColorCapacity() const { return capacity_ / static_cast<double>(num_colors_); }

  // Capacity of a reservation, in blocks.
  double ReservedCapacity(ColorMask mask) const;

  // --- Interference accounting ---------------------------------------------

  // Total blocks evicted from owners *other* than the running one by chunk
  // insertions on shared colors, since construction — the quantity color
  // isolation drives to zero.
  double interference_evictions() const { return interference_evictions_; }

  // Interference evictions suffered by one owner.
  double InterferenceOn(CacheOwner owner) const;

  // --- CacheModel -----------------------------------------------------------

  CacheChunkResult RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                            double seconds) override;
  double Resident(CacheOwner owner) const override;
  double Occupied() const override { return resident_.occupied(); }
  double capacity() const override { return capacity_; }
  // Full-cache residency cap (reservation-independent), so policy-side reload
  // scoring is comparable across owners with different reservations.
  double MaxResident(double blocks) const override;
  void Flush() override;
  void EjectFraction(CacheOwner owner, double fraction) override;
  double EjectBlocks(CacheOwner owner, double blocks) override;
  void ReplaceOwnerData(CacheOwner owner, double keep_fraction) override;
  void RemoveOwner(CacheOwner owner) override;

  // Test hook: force a resident footprint.
  void SetResident(CacheOwner owner, double blocks);

 private:
  double capacity_;
  size_t ways_;
  size_t num_colors_;
  double interference_evictions_ = 0.0;
  Residency resident_;
  // Indexed by owner id; owners past the end hold every color and have
  // suffered no interference.
  std::vector<ColorMask> reserved_;
  std::vector<double> interference_on_;
  MaxResidentMemo max_resident_;
  TouchFractionMemo touch_fraction_;
};

}  // namespace affsched

#endif  // SRC_CACHE_PARTITIONED_H_
