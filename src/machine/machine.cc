#include "src/machine/machine.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace affsched {

std::string MachineConfig::Validate() const {
  if (num_processors == 0) {
    return "machine requires at least one processor (procs=0)";
  }
  if (num_processors > kMaxProcessors) {
    return "machine supports at most " + std::to_string(kMaxProcessors) + " processors";
  }
  if (geometry.line_bytes == 0 || geometry.total_bytes == 0 || geometry.TotalLines() == 0) {
    return "cache geometry has zero capacity (line_bytes/total_bytes)";
  }
  if (geometry.ways == 0) {
    return "cache geometry needs at least one way";
  }
  // Written so that NaN fails too.
  constexpr double kMinFactor = 1.0 / 1024.0;
  constexpr double kMaxFactor = 1024.0;
  if (!(processor_speed >= kMinFactor && processor_speed <= kMaxFactor)) {
    return "processor_speed must be in [2^-10, 2^10]";
  }
  if (!(cache_size_factor >= kMinFactor && cache_size_factor <= kMaxFactor)) {
    return "cache_size_factor must be in [2^-10, 2^10]";
  }
  if (num_colors > 64) {
    return "colors must be in 0..64";
  }
  if (num_colors > 0 && !topology.IsFlat()) {
    return "colors needs a flat topology";
  }
  return topology.Validate(num_processors);
}

Machine::Machine(const MachineConfig& config)
    : config_(config),
      miss_service_s_(config.MissServiceSeconds()),
      topology_(config.topology, config.num_processors),
      bus_(config.bus) {
  const std::string problem = config_.Validate();
  AFF_CHECK_MSG(problem.empty(), problem.c_str());
  processors_.reserve(config_.num_processors);
  for (size_t i = 0; i < config_.num_processors; ++i) {
    processors_.emplace_back(FootprintCache(config_.CapacityBlocks(), config_.geometry.ways,
                                            std::max<size_t>(1, config_.num_colors)),
                             config_.task_history_depth);
  }
  if (config_.topology.llc_kb > 0) {
    llcs_.assign(topology_.num_clusters(),
                 FootprintCache(config_.topology.LlcCapacityBlocks(config_.geometry.line_bytes),
                                config_.topology.llc_ways));
  }
}

Processor& Machine::processor(size_t i) {
  AFF_CHECK(i < processors_.size());
  return processors_[i];
}

const Processor& Machine::processor(size_t i) const {
  AFF_CHECK(i < processors_.size());
  return processors_[i];
}

const FootprintCache& Machine::llc(size_t cluster) const {
  AFF_CHECK(cluster < llcs_.size());
  return llcs_[cluster];
}

double Machine::Eject(size_t proc, CacheOwner owner, double blocks) {
  const double removed = processor(proc).cache().EjectBlocks(owner, blocks);
  if (FootprintCache* llc = LlcOf(proc)) {
    llc->EjectBlocks(owner, removed);
  }
  return removed;
}

Machine::ChunkExecution Machine::ExecuteChunk(SimTime now, size_t proc, CacheOwner owner,
                                              const WorkingSetParams& ws, SimDuration work,
                                              double owed) {
  AFF_CHECK(work >= 0);
  // EjectBlocks rejects a negative amount.
  const double invalidations = owed != 0.0 ? Eject(proc, owner, owed) : 0.0;
  // Footprint evolution is driven by the *work* performed (same blocks get
  // touched for the same amount of computation regardless of clock rate).
  const double seconds = ToSeconds(work);
  const CacheChunkResult misses = processor(proc).cache().RunChunk(owner, ws, seconds);

  // The reloads' sources (machine.h). A flat machine has neither an LLC nor
  // a second node, so both stay zero.
  double llc_hits = 0.0;
  double remote = 0.0;
  if (FootprintCache* llc = LlcOf(proc)) {
    if (misses.reload_misses > 0.0) {
      llc_hits = std::min(misses.reload_misses, llc->Resident(owner));
    }
    llc->RunChunk(owner, ws, seconds);
  }
  if (topology_.num_nodes() > 1) {
    const size_t node = topology_.NodeOf(proc);
    if (owner >= last_node_.size()) {
      last_node_.resize(owner + 1, kNoNode);
    }
    const size_t last = std::exchange(last_node_[owner], node);
    if (misses.reload_misses > 0.0 && last != kNoNode && last != node) {
      remote = misses.reload_misses - llc_hits;
    }
  }

  const double inflation = bus_.InflationFactor(now);
  // LLC hits stay off the shared bus: they are cluster-local traffic.
  bus_.RecordTraffic(now, misses.TotalMisses() - llc_hits + invalidations);
  ChunkExecution exec;
  exec.reload_misses = misses.reload_misses;
  exec.steady_misses = misses.steady_misses;
  // Weighted by source (machine.h). Without LLC hits or remote fills (every
  // chunk on a flat machine) the weight is the reload count.
  double reload_weight = misses.reload_misses;
  if (llc_hits != 0.0 || remote != 0.0) {
    const double factor = config_.topology.llc_hit_factor;
    const double multiplier = config_.topology.remote_multiplier;
    reload_weight =
        (misses.reload_misses - llc_hits - remote) + llc_hits * factor + remote * multiplier;
    exec.reload_llc = Seconds(llc_hits * miss_service_s_ * factor * inflation);
    exec.reload_remote = Seconds(remote * miss_service_s_ * multiplier * inflation);
  }
  const double weight = reload_weight + misses.steady_misses;
  exec.stall = Seconds(weight * miss_service_s_ * inflation);
  if (weight > 0.0) {
    exec.reload_stall =
        static_cast<SimDuration>(static_cast<double>(exec.stall) * (reload_weight / weight));
    exec.steady_stall = exec.stall - exec.reload_stall;
  }
  exec.wall = config_.ComputeTime(work) + exec.stall;
  return exec;
}

void Machine::Invalidate(SimTime now, size_t proc, CacheOwner owner, double blocks) {
  if (blocks != 0.0) {
    bus_.RecordTraffic(now, Eject(proc, owner, blocks));
  }
}

void Machine::ReplaceOwnerData(size_t proc, CacheOwner owner, double keep_fraction) {
  processor(proc).cache().ReplaceOwnerData(owner, keep_fraction);
  if (FootprintCache* llc = LlcOf(proc)) {
    llc->ReplaceOwnerData(owner, keep_fraction);
  }
}

}  // namespace affsched
