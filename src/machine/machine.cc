#include "src/machine/machine.h"

#include <algorithm>
#include <utility>

#include "src/cache/exact_model.h"
#include "src/cache/footprint.h"
#include "src/common/check.h"
#include "src/common/rng.h"

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
  if (!topology.IsFlat() && cache_model != CacheModelKind::kFootprint) {
    return "hierarchical topologies require the footprint cache model "
           "(the exact per-line model has no LLC tier)";
  }
  if (num_colors > 64) {
    return "colors must be in 0..64";
  }
  if (num_colors > 0 && (cache_model != CacheModelKind::kFootprint || !topology.IsFlat())) {
    return "colors needs the footprint cache model on a flat topology";
  }
  return topology.Validate(num_processors);
}

namespace {

std::unique_ptr<CacheModel> BuildCacheModel(const MachineConfig& config, size_t proc,
                                            const Topology& topology,
                                            TopologyCacheState* topo_state) {
  switch (config.cache_model) {
    case CacheModelKind::kFootprint:
      if (topo_state != nullptr) {
        return std::make_unique<HierarchicalCacheModel>(
            config.CapacityBlocks(), config.geometry.ways, topology, topo_state, proc);
      }
      return std::make_unique<FootprintCache>(config.CapacityBlocks(), config.geometry.ways,
                                              std::max<size_t>(1, config.num_colors));
    case CacheModelKind::kExact: {
      // The exact model's capacity is set by its geometry, so the future-
      // machine cache-size factor scales the byte size directly.
      CacheGeometry geometry = config.geometry;
      geometry.total_bytes = static_cast<size_t>(
          static_cast<double>(geometry.total_bytes) * config.cache_size_factor);
      // Per-processor stream seed, derived so processors are decorrelated.
      uint64_t state = config.cache_model_seed + proc;
      return std::make_unique<ExactCacheModel>(geometry, SplitMix64(state));
    }
  }
  AFF_CHECK_MSG(false, "unknown cache model kind");
  return nullptr;
}

}  // namespace

Machine::Machine(const MachineConfig& config)
    : config_(config),
      miss_service_s_(config.MissServiceSeconds()),
      topology_(config.topology, config.num_processors),
      bus_(config.bus) {
  const std::string problem = config_.Validate();
  AFF_CHECK_MSG(problem.empty(), problem.c_str());
  if (!config_.topology.IsFlat()) {
    topo_state_ = std::make_unique<TopologyCacheState>(
        topology_, config_.topology.LlcCapacityBlocks(config_.geometry.line_bytes),
        config_.topology.llc_ways);
  }
  processors_.reserve(config_.num_processors);
  for (size_t i = 0; i < config_.num_processors; ++i) {
    processors_.emplace_back(i, BuildCacheModel(config_, i, topology_, topo_state_.get()),
                             config_.task_history_depth);
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

Machine::ChunkExecution Machine::ExecuteChunk(SimTime now, size_t proc, CacheOwner owner,
                                              const WorkingSetParams& ws, SimDuration work,
                                              double owed) {
  AFF_CHECK(work >= 0);
  Processor& p = processor(proc);
  // EjectBlocks rejects a negative amount.
  const double invalidations = owed != 0.0 ? p.cache().EjectBlocks(owner, owed) : 0.0;
  // Footprint evolution is driven by the *work* performed (same blocks get
  // touched for the same amount of computation regardless of clock rate).
  const CacheChunkResult misses = p.cache().RunChunk(owner, ws, ToSeconds(work));

  const double inflation = bus_.InflationFactor(now);
  const double llc_hits = misses.reload_llc_hits;
  const double remote = misses.reload_remote;
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
    bus_.RecordTraffic(now, processor(proc).cache().EjectBlocks(owner, blocks));
  }
}

}  // namespace affsched
