// CacheModel backed by the exact per-line set-associative simulation.
//
// Realises the same statistical workload model the analytic FootprintCache
// integrates in closed form, but reference by reference against ExactCache:
//
//   * Working-set references are drawn uniformly from each owner's working
//     set of W blocks at rate W / tau per second of useful execution — the
//     rate at which the analytic buildup curve u(d) = W(1 - exp(-d/tau))
//     touches distinct blocks. Misses among them are reload misses.
//   * Steady-state misses are realised as accesses to a never-reused
//     sequential block region (compulsory misses), steady_miss_per_s per
//     second. They occupy lines, so they exert the same eviction pressure on
//     other owners that the footprint model's decay term approximates.
//
// Reference streams are per owner, seeded deterministically from the model
// seed and the owner id, so trajectories are reproducible regardless of the
// order owners first appear. This model is orders of magnitude slower than
// FootprintCache. It is not a machine substrate: it is the reference the
// analytic model is checked against one cache at a time, behind the same
// CacheModel contract (tests/cache/cache_model_test.cc, coherence_test.cc).

#ifndef SRC_CACHE_EXACT_MODEL_H_
#define SRC_CACHE_EXACT_MODEL_H_

#include <cstdint>
#include <unordered_map>

#include "src/cache/cache_model.h"
#include "src/cache/geometry.h"
#include "src/cache/refstream.h"

namespace affsched {

class ExactCacheModel final : public CacheModel {
 public:
  ExactCacheModel(const CacheGeometry& geometry, uint64_t seed);

  CacheChunkResult RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                            double seconds) override;
  double Resident(CacheOwner owner) const override;
  double Occupied() const override;
  double capacity() const override;
  double MaxResident(double blocks) const override;
  void Flush() override;
  double EjectBlocks(CacheOwner owner, double blocks) override;
  void ReplaceOwnerData(CacheOwner owner, double keep_fraction) override;

  const ExactCache& exact_cache() const { return cache_; }

 private:
  struct OwnerState {
    ReferenceStream stream;
    // Fractional references carried across chunks so non-integral per-chunk
    // reference counts do not bias long-run rates.
    double ws_ref_debt = 0.0;
    double stream_debt = 0.0;
    uint64_t next_fresh_block = 0;
  };

  OwnerState& StateFor(CacheOwner owner, const WorkingSetParams& ws);

  // Invalidates up to `target` of `owner`'s resident lines, walking its
  // working set (then its streaming region is left to natural eviction).
  void InvalidateSome(CacheOwner owner, size_t target);

  CacheGeometry geometry_;
  uint64_t seed_;
  ExactCache cache_;
  std::unordered_map<CacheOwner, OwnerState> owners_;
};

}  // namespace affsched

#endif  // SRC_CACHE_EXACT_MODEL_H_
