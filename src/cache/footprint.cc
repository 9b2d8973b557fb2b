#include "src/cache/footprint.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/check.h"

namespace affsched {

namespace {

double PopCount(ColorMask mask) { return static_cast<double>(std::popcount(mask)); }

}  // namespace

FootprintCache::FootprintCache(double capacity_blocks, size_t ways, size_t colors)
    : capacity_(capacity_blocks),
      ways_(static_cast<uint32_t>(ways)),
      num_colors_(static_cast<uint32_t>(colors)) {
  AFF_CHECK(capacity_ > 0.0);
  AFF_CHECK(ways >= 1 && ways <= UINT32_MAX);
  AFF_CHECK_MSG(colors >= 1 && colors <= 64, "colors must be in 1..64");
}

double FootprintCache::MaxResident(double blocks) const {
  return ExpectedMaxResident(capacity_, ways_, blocks);
}

void FootprintCache::ReserveColors(CacheOwner owner, ColorMask mask) {
  AFF_CHECK(owner != kNoOwner);
  if (owner >= reserved_.size()) {
    reserved_.resize(owner + 1, FullColorMask(num_colors_));
  }
  reserved_[owner] = mask & FullColorMask(num_colors_);
}

ColorMask FootprintCache::ReservedColors(CacheOwner owner) const {
  return owner < reserved_.size() ? reserved_[owner] : FullColorMask(num_colors_);
}

double FootprintCache::ReservedCapacity(ColorMask mask) const {
  return ColorCapacity() * PopCount(mask & FullColorMask(num_colors_));
}

double FootprintCache::Resident(CacheOwner owner) const { return resident_.Of(owner); }

void FootprintCache::SetResident(CacheOwner owner, double blocks) {
  AFF_CHECK(blocks >= 0.0 && blocks <= capacity_);
  resident_.Set(owner, blocks);
}

CacheChunkResult FootprintCache::RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                                          double seconds) {
  AFF_CHECK(owner != kNoOwner);
  AFF_CHECK(seconds >= 0.0);
  CacheChunkResult result;
  if (seconds == 0.0) {
    return result;
  }

  const bool colored = !reserved_.empty();
  const ColorMask mask = colored ? ReservedColors(owner) : kAllColors;
  const double touch_fraction = touch_fraction_.Get(seconds, ws.buildup_tau_s);
  result.steady_misses = ws.steady_miss_per_s * seconds;
  // Zero reserved colors: always-cold. Every distinct block the chunk touches
  // misses, nothing survives, and — with nowhere to insert — no other owner's
  // footprint is disturbed.
  if (mask == 0) {
    result.reload_misses = MaxResident(ws.blocks) * touch_fraction;
    resident_.Set(owner, 0.0);
    return result;
  }

  const double w_eff =
      max_resident_.Get(colored ? ReservedCapacity(mask) : capacity_, ways_, ws.blocks);
  const double f = Resident(owner);
  result.reload_misses = std::max(0.0, (w_eff - f) * touch_fraction);

  // Every insertion lands in a (set-associatively constrained) location that
  // may hold another task's line, so other owners' footprints decay by
  // (1 - 1/C) per insertion even when the cache is not globally full. This
  // random-replacement approximation tracks the exact 2-way LRU cache far
  // better than a "fill free lines first" model, which both under-ejects in
  // mid regimes (set conflicts evict despite global free space) and
  // over-ejects in saturated ones (a streaming task also evicts its own
  // lines). Validated in tests/cache/footprint_vs_exact_test.cc. The running
  // task's own recent blocks are MRU and modelled as protected.
  const double new_self = std::min(w_eff, f + result.reload_misses);
  const double evicting = result.reload_misses + result.steady_misses;
  if (evicting > 0.0 && !resident_.empty()) {
    if (!colored) {
      // Taken at the first other owner: when `owner` holds the only
      // footprint (most chunks), DecayOthers just re-totals and the pow is
      // never paid.
      double survival = -1.0;
      resident_.DecayOthers(owner, [&](Residency::Footprint& fp) {
        survival = survival < 0.0 ? std::pow(1.0 - 1.0 / capacity_, evicting) : survival;
        fp.blocks *= survival;
      });
    } else {
      // The same ejection, restricted to the colors an insertion can land in
      // (the header's model).
      const double n_own = PopCount(mask);
      resident_.DecayOthers(owner, [&](Residency::Footprint& fp) {
        const ColorMask victim_mask = ReservedColors(fp.owner);
        const ColorMask shared = victim_mask & mask;
        if (shared == 0) {
          return;
        }
        const double n_sh = PopCount(shared);
        const double vulnerable = fp.blocks * n_sh / PopCount(victim_mask);
        const double shared_capacity = ColorCapacity() * n_sh;
        const double survival = std::pow(1.0 - 1.0 / shared_capacity, evicting * n_sh / n_own);
        fp.blocks -= vulnerable * (1.0 - survival);
      });
    }
  }
  resident_.Set(owner, new_self);

  // Numerical safety: keep total occupancy within capacity by squeezing the
  // owners other than the one that just ran.
  resident_.Squeeze(owner, new_self, capacity_);
  return result;
}

void FootprintCache::Flush() { resident_.Clear(); }

double FootprintCache::EjectBlocks(CacheOwner owner, double blocks) {
  AFF_CHECK(blocks >= 0.0);
  return resident_.Eject(owner, blocks);
}

void FootprintCache::ReplaceOwnerData(CacheOwner owner, double keep_fraction) {
  AFF_CHECK(keep_fraction >= 0.0 && keep_fraction <= 1.0);
  resident_.Set(owner, Resident(owner) * keep_fraction);
}

}  // namespace affsched
