// Residency: the resident footprints of one FootprintCache (colored or not)
// and their running total.
//
// A cache holds few owners at once: 2-3 on average at a chunk on the paper's
// grids and the mq/rt ones, 7.5 on cmp-2x10, 14 on the open-system grid, a
// few dozen at most. So the footprints are a small vector of {owner, blocks}
// in insertion order, searched linearly: a lookup scans a cache line or two,
// nothing is hashed, and memory grows with the owners actually resident, not
// with the number of workers. Every member is defined here so the chunk path
// (including a settled coherence Eject) compiles to straight-line code.
//
// The insertion order fixes the order of the one sum taken over the owners
// (DecayOthers), so trajectories do not depend on how owners hash.

#ifndef SRC_CACHE_RESIDENCY_H_
#define SRC_CACHE_RESIDENCY_H_

#include <algorithm>
#include <vector>

#include "src/cache/exact_cache.h"

namespace affsched {

class Residency {
 public:
  struct Footprint {
    CacheOwner owner;
    double blocks;  // > 0: a footprint that reaches zero is dropped
  };

  // `owner`'s footprint, 0 when absent.
  double Of(CacheOwner owner) const {
    for (const Footprint& fp : footprints_) {
      if (fp.owner == owner) {
        return fp.blocks;
      }
    }
    return 0.0;
  }

  bool empty() const { return footprints_.empty(); }

  // Total of the footprints, as last set by Set/Eject/DecayOthers/Squeeze.
  double occupied() const { return occupied_; }

  // Sets `owner`'s footprint to `blocks`, dropping it at zero, and moves the
  // total by the difference.
  void Set(CacheOwner owner, double blocks) { Store(Find(owner), owner, blocks); }

  // Removes up to `blocks` of `owner`'s footprint and returns the amount
  // removed, min(blocks, footprint).
  double Eject(CacheOwner owner, double blocks) {
    const auto it = Find(owner);
    if (it == footprints_.end()) {
      return 0.0;
    }
    const double removed = std::min(blocks, it->blocks);
    Store(it, owner, it->blocks - removed);
    return removed;
  }

  void Clear() {
    footprints_.clear();
    occupied_ = 0.0;
  }

  // Applies `decay(Footprint&)` to every footprint but `owner`'s, drops the
  // ones left below 1e-9 blocks (keeping the rest in order), and resets the
  // total to the survivors' sum plus `owner`'s footprint.
  template <typename Decay>
  void DecayOthers(CacheOwner owner, Decay decay) {
    double others = 0.0;
    double self = 0.0;
    size_t kept = 0;
    for (Footprint fp : footprints_) {
      if (fp.owner == owner) {
        self = fp.blocks;
      } else {
        decay(fp);
        if (fp.blocks < 1e-9) {
          continue;
        }
        others += fp.blocks;
      }
      footprints_[kept++] = fp;
    }
    footprints_.resize(kept);
    occupied_ = others + self;
  }

  // Numerical safety after `owner` ran and now holds `self_blocks`: keeps
  // the total within `capacity` by scaling the other owners down together,
  // or, when `owner` alone exceeds it, by capping `owner` at `capacity`.
  void Squeeze(CacheOwner owner, double self_blocks, double capacity) {
    if (!(occupied_ > capacity)) {
      return;
    }
    const double excess = occupied_ - capacity;
    const double others = occupied_ - self_blocks;
    if (others > 0.0) {
      const double scale = std::max(0.0, (others - excess) / others);
      for (Footprint& fp : footprints_) {
        if (fp.owner != owner) {
          fp.blocks *= scale;
        }
      }
      occupied_ = self_blocks + others * scale;
    } else {
      Set(owner, capacity);
    }
  }

 private:
  using Iter = std::vector<Footprint>::iterator;

  Iter Find(CacheOwner owner) {
    return std::find_if(footprints_.begin(), footprints_.end(),
                        [owner](const Footprint& fp) { return fp.owner == owner; });
  }

  void Store(Iter it, CacheOwner owner, double blocks) {
    const bool present = it != footprints_.end();
    const double old = present ? it->blocks : 0.0;
    occupied_ += blocks - old;
    if (blocks <= 0.0) {
      if (present) {
        footprints_.erase(it);
      }
    } else if (!present) {
      footprints_.push_back(Footprint{owner, blocks});
    } else {
      it->blocks = blocks;
    }
  }

  std::vector<Footprint> footprints_;  // insertion order
  double occupied_ = 0.0;
};

}  // namespace affsched

#endif  // SRC_CACHE_RESIDENCY_H_
