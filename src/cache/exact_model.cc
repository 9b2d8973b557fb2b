#include "src/cache/exact_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace affsched {
namespace {

// Streaming (steady-state miss) references go to a per-owner sequential
// region far above any working-set address, so they never collide with
// working-set blocks and are compulsory misses by construction.
constexpr uint64_t kFreshRegionBase = 1ull << 62;

ReferenceStreamParams StreamParams(const WorkingSetParams& ws) {
  ReferenceStreamParams params;
  params.working_set_blocks = static_cast<size_t>(std::llround(std::max(1.0, ws.blocks)));
  params.streaming_fraction = 0.0;  // steady misses are realised separately
  return params;
}

}  // namespace

ExactCacheModel::ExactCacheModel(const CacheGeometry& geometry, uint64_t seed)
    : geometry_(geometry), seed_(seed), cache_(geometry) {}

ExactCacheModel::OwnerState& ExactCacheModel::StateFor(CacheOwner owner,
                                                       const WorkingSetParams& ws) {
  auto it = owners_.find(owner);
  if (it == owners_.end()) {
    // Seed from (model seed, owner) so the stream is independent of the order
    // in which owners first run — deterministic across scheduling policies.
    uint64_t state = seed_ ^ owner * 0x9e3779b97f4a7c15ull;
    const uint64_t stream_seed = SplitMix64(state);
    it = owners_
             .emplace(owner, OwnerState{ReferenceStream(StreamParams(ws), stream_seed),
                                        0.0, 0.0, 0})
             .first;
  }
  return it->second;
}

CacheChunkResult ExactCacheModel::RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                                           double seconds) {
  AFF_CHECK(owner != kNoOwner);
  AFF_CHECK(seconds >= 0.0);
  CacheChunkResult result;
  if (seconds == 0.0) {
    return result;
  }
  OwnerState& state = StateFor(owner, ws);

  // u(d) = W(1 - exp(-d/tau)) is the distinct-block count of n = W d / tau
  // uniform draws from the working set, so the reference rate is W / tau.
  const double ws_rate =
      ws.buildup_tau_s > 0.0 ? ws.blocks / ws.buildup_tau_s : 0.0;
  state.ws_ref_debt += ws_rate * seconds;
  auto refs = static_cast<uint64_t>(state.ws_ref_debt);
  state.ws_ref_debt -= static_cast<double>(refs);
  for (uint64_t i = 0; i < refs; ++i) {
    if (!cache_.Access(owner, state.stream.Next()).hit) {
      result.reload_misses += 1.0;
    }
  }

  state.stream_debt += ws.steady_miss_per_s * seconds;
  auto fresh = static_cast<uint64_t>(state.stream_debt);
  state.stream_debt -= static_cast<double>(fresh);
  for (uint64_t i = 0; i < fresh; ++i) {
    cache_.Access(owner, kFreshRegionBase + state.next_fresh_block++);
    result.steady_misses += 1.0;
  }
  return result;
}

double ExactCacheModel::Resident(CacheOwner owner) const {
  return static_cast<double>(cache_.ResidentLines(owner));
}

double ExactCacheModel::Occupied() const {
  return static_cast<double>(cache_.OccupiedLines());
}

double ExactCacheModel::capacity() const {
  return static_cast<double>(geometry_.TotalLines());
}

double ExactCacheModel::MaxResident(double blocks) const {
  return ExpectedMaxResident(capacity(), geometry_.ways, blocks);
}

void ExactCacheModel::Flush() { cache_.Flush(); }

void ExactCacheModel::InvalidateSome(CacheOwner owner, size_t target) {
  if (target == 0) {
    return;
  }
  auto it = owners_.find(owner);
  if (it == owners_.end()) {
    return;
  }
  size_t removed = 0;
  for (const uint64_t block : it->second.stream.working_set()) {
    if (removed >= target) {
      return;
    }
    if (cache_.InvalidateBlock(owner, block)) {
      ++removed;
    }
  }
  // Remaining invalidations fall on the streaming region (most recent first,
  // as those are the lines still likely resident).
  uint64_t fresh = it->second.next_fresh_block;
  while (removed < target && fresh > 0) {
    --fresh;
    if (cache_.InvalidateBlock(owner, kFreshRegionBase + fresh)) {
      ++removed;
    }
  }
}

double ExactCacheModel::EjectBlocks(CacheOwner owner, double blocks) {
  AFF_CHECK(blocks >= 0.0);
  // The lines invalidated are the nearest whole number; the amount reported
  // is the fractional one the bus charges, as on the analytic substrates.
  const double removed = std::min(blocks, Resident(owner));
  InvalidateSome(owner, static_cast<size_t>(std::llround(removed)));
  return removed;
}

void ExactCacheModel::ReplaceOwnerData(CacheOwner owner, double keep_fraction) {
  AFF_CHECK(keep_fraction >= 0.0 && keep_fraction <= 1.0);
  auto it = owners_.find(owner);
  if (it == owners_.end()) {
    return;
  }
  // The next thread reuses keep_fraction of the working set; replaced blocks
  // are dead data, so invalidate any of their lines still resident.
  std::vector<uint64_t> before = it->second.stream.working_set();
  it->second.stream.TurnOver(keep_fraction);
  const std::vector<uint64_t>& ws = it->second.stream.working_set();
  const std::unordered_set<uint64_t> kept(ws.begin(), ws.end());
  for (const uint64_t block : before) {
    if (kept.find(block) == kept.end()) {
      cache_.InvalidateBlock(owner, block);
    }
  }
}

}  // namespace affsched
