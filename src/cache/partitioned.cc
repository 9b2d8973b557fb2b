#include "src/cache/partitioned.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/check.h"

namespace affsched {

namespace {

size_t PopCount(ColorMask mask) { return static_cast<size_t>(std::popcount(mask)); }

}  // namespace

PartitionedCacheModel::PartitionedCacheModel(double capacity_blocks, size_t ways,
                                             size_t num_colors)
    : capacity_(capacity_blocks), ways_(ways), num_colors_(num_colors) {
  AFF_CHECK(capacity_ > 0.0);
  AFF_CHECK(ways_ >= 1);
  AFF_CHECK_MSG(num_colors_ >= 1 && num_colors_ <= 64, "num_colors must be in 1..64");
}

void PartitionedCacheModel::ReserveColors(CacheOwner owner, ColorMask mask) {
  AFF_CHECK(owner != kNoOwner);
  if (owner >= reserved_.size()) {
    reserved_.resize(owner + 1, FullColorMask(num_colors_));
  }
  reserved_[owner] = mask & FullColorMask(num_colors_);
}

ColorMask PartitionedCacheModel::ReservedColors(CacheOwner owner) const {
  return owner < reserved_.size() ? reserved_[owner] : FullColorMask(num_colors_);
}

double PartitionedCacheModel::ReservedCapacity(ColorMask mask) const {
  return ColorCapacity() * static_cast<double>(PopCount(mask & FullColorMask(num_colors_)));
}

double PartitionedCacheModel::InterferenceOn(CacheOwner owner) const {
  return owner < interference_on_.size() ? interference_on_[owner] : 0.0;
}

double PartitionedCacheModel::MaxResident(double blocks) const {
  return ExpectedMaxResident(capacity_, ways_, blocks);
}

double PartitionedCacheModel::Resident(CacheOwner owner) const { return resident_.Of(owner); }

void PartitionedCacheModel::SetResident(CacheOwner owner, double blocks) {
  AFF_CHECK(blocks >= 0.0 && blocks <= capacity_);
  resident_.Set(owner, blocks);
}

CacheChunkResult PartitionedCacheModel::RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                                                 double seconds) {
  AFF_CHECK(owner != kNoOwner);
  AFF_CHECK(seconds >= 0.0);
  CacheChunkResult result;
  if (seconds == 0.0) {
    return result;
  }

  const ColorMask mask = ReservedColors(owner);
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

  const size_t n_own = PopCount(mask);
  const double own_capacity = ReservedCapacity(mask);
  const double w_eff = max_resident_.Get(own_capacity, ways_, ws.blocks);
  const double f = Resident(owner);
  result.reload_misses = std::max(0.0, (w_eff - f) * touch_fraction);

  // FootprintCache's random-replacement ejection, restricted to the colors an
  // insertion can actually land in. The running owner's insertions spread
  // uniformly over its n_own reserved colors; a victim with footprint r on
  // n_o colors keeps r * n_sh / n_o blocks on the n_sh contested colors, and
  // each of the evicting insertions directed at those colors (a n_sh / n_own
  // share) sweeps a slice of capacity C_shared. Disjoint reservations are
  // untouched: the isolation guarantee.
  const double new_self = std::min(w_eff, f + result.reload_misses);
  const double evicting = result.reload_misses + result.steady_misses;
  if (evicting > 0.0 && !resident_.empty()) {
    resident_.DecayOthers(owner, [&](Residency::Footprint& fp) {
      const ColorMask victim_mask = ReservedColors(fp.owner);
      const ColorMask shared = victim_mask & mask;
      if (shared == 0 || victim_mask == 0) {
        return;
      }
      const size_t n_sh = PopCount(shared);
      const size_t n_o = PopCount(victim_mask);
      const double vulnerable = fp.blocks * static_cast<double>(n_sh) / static_cast<double>(n_o);
      const double shared_capacity = ColorCapacity() * static_cast<double>(n_sh);
      const double directed = evicting * static_cast<double>(n_sh) / static_cast<double>(n_own);
      const double survival = std::pow(1.0 - 1.0 / shared_capacity, directed);
      const double lost = vulnerable * (1.0 - survival);
      fp.blocks -= lost;
      interference_evictions_ += lost;
      if (fp.owner >= interference_on_.size()) {
        interference_on_.resize(fp.owner + 1, 0.0);
      }
      interference_on_[fp.owner] += lost;
    });
  }
  resident_.Set(owner, new_self);

  // Numerical safety: keep total occupancy within capacity by squeezing the
  // owners other than the one that just ran.
  resident_.Squeeze(owner, new_self, capacity_);
  return result;
}

void PartitionedCacheModel::Flush() { resident_.Clear(); }

void PartitionedCacheModel::EjectFraction(CacheOwner owner, double fraction) {
  AFF_CHECK(fraction >= 0.0 && fraction <= 1.0);
  resident_.Set(owner, Resident(owner) * (1.0 - fraction));
}

double PartitionedCacheModel::EjectBlocks(CacheOwner owner, double blocks) {
  AFF_CHECK(blocks >= 0.0);
  return resident_.Eject(owner, blocks);
}

void PartitionedCacheModel::ReplaceOwnerData(CacheOwner owner, double keep_fraction) {
  AFF_CHECK(keep_fraction >= 0.0 && keep_fraction <= 1.0);
  resident_.Set(owner, Resident(owner) * keep_fraction);
}

void PartitionedCacheModel::RemoveOwner(CacheOwner owner) {
  resident_.Set(owner, 0.0);
  if (owner < reserved_.size()) {
    reserved_[owner] = FullColorMask(num_colors_);
  }
}

}  // namespace affsched
