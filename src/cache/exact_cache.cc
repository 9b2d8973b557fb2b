#include "src/cache/exact_cache.h"

#include <algorithm>

#include "src/common/check.h"

namespace affsched {

ExactCache::ExactCache(const CacheGeometry& geometry) : geometry_(geometry) {
  AFF_CHECK(geometry_.ways >= 1);
  AFF_CHECK(geometry_.TotalLines() >= geometry_.ways);
  lines_.resize(geometry_.TotalLines());
}

ExactCache::Line* ExactCache::FindLine(CacheOwner owner, uint64_t block) {
  const size_t set = SetIndex(block);
  Line* base = &lines_[set * geometry_.ways];
  for (size_t w = 0; w < geometry_.ways; ++w) {
    if (base[w].owner == owner && base[w].block == block && owner != kNoOwner) {
      return &base[w];
    }
  }
  return nullptr;
}

const ExactCache::Line* ExactCache::FindLine(CacheOwner owner, uint64_t block) const {
  return const_cast<ExactCache*>(this)->FindLine(owner, block);
}

ExactCache::AccessResult ExactCache::Access(CacheOwner owner, uint64_t block) {
  AFF_CHECK(owner != kNoOwner);
  ++stamp_;
  if (Line* line = FindLine(owner, block)) {
    line->lru_stamp = stamp_;
    ++hits_;
    return AccessResult{.hit = true};
  }
  ++misses_;
  // Choose a victim: an empty way if available, else the LRU way.
  const size_t set = SetIndex(block);
  Line* base = &lines_[set * geometry_.ways];
  Line* victim = &base[0];
  for (size_t w = 0; w < geometry_.ways; ++w) {
    if (base[w].owner == kNoOwner) {
      victim = &base[w];
      break;
    }
    if (base[w].lru_stamp < victim->lru_stamp) {
      victim = &base[w];
    }
  }
  AccessResult result;
  if (victim->owner != kNoOwner) {
    result.evicted_owner = victim->owner;
    result.evicted_block = victim->block;
    auto it = resident_.find(victim->owner);
    AFF_CHECK(it != resident_.end() && it->second > 0);
    if (--it->second == 0) {
      resident_.erase(it);
    }
  } else {
    ++occupied_;
  }
  victim->owner = owner;
  victim->block = block;
  victim->lru_stamp = stamp_;
  ++resident_[owner];
  return result;
}

bool ExactCache::Contains(CacheOwner owner, uint64_t block) const {
  return FindLine(owner, block) != nullptr;
}

bool ExactCache::InvalidateBlock(CacheOwner owner, uint64_t block) {
  Line* line = FindLine(owner, block);
  if (line == nullptr) {
    return false;
  }
  auto it = resident_.find(owner);
  AFF_CHECK(it != resident_.end() && it->second > 0);
  if (--it->second == 0) {
    resident_.erase(it);
  }
  --occupied_;
  *line = Line{};
  return true;
}

void ExactCache::Flush() {
  std::fill(lines_.begin(), lines_.end(), Line{});
  resident_.clear();
  occupied_ = 0;
}

size_t ExactCache::ResidentLines(CacheOwner owner) const {
  auto it = resident_.find(owner);
  return it == resident_.end() ? 0 : it->second;
}

void ExactCache::ResetCounters() {
  hits_ = 0;
  misses_ = 0;
}

}  // namespace affsched
