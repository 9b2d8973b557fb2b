// The simulated multiprocessor: processors with private footprint caches, a
// shared bus, and machine-wide configuration. On a hierarchical topology the
// machine also owns one shared LLC per cluster and the directory of the node
// each task last ran on, and decides where each reload miss is served from.
//
// Defaults model the paper's Sequent Symmetry Model B (20 processors, 64 KB
// 2-way caches, 0.75 us per block fill, 750 us reallocation path length).
// `processor_speed` and `cache_size_factor` scale the machine into the future
// exactly as Section 7 of the paper does: computation scales linearly with
// processor speed, miss service improves only as sqrt(speed), and cache
// capacity scales with the cache-size factor — so the simulator can *run*
// the future-machine experiments that the paper could only model analytically.

#ifndef SRC_MACHINE_MACHINE_H_
#define SRC_MACHINE_MACHINE_H_

#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/bus.h"
#include "src/cache/footprint.h"
#include "src/cache/geometry.h"
#include "src/common/recency_list.h"
#include "src/topology/topology.h"

namespace affsched {

// Upper bound on MachineConfig::num_processors (Validate): four times the
// largest machine any experiment here simulates (P = 1024), and small enough
// that per-processor state cannot exhaust memory.
inline constexpr size_t kMaxProcessors = 4096;

struct MachineConfig {
  size_t num_processors = 20;
  // Depth of the per-processor task history (T of Section 5.3).
  size_t task_history_depth = 1;
  CacheGeometry geometry;
  // Uncontended per-block miss service time on the base machine.
  SimDuration miss_service = kSymmetryMissService;
  // Kernel path-length cost of a reallocation on the base machine.
  SimDuration switch_cost = kSymmetrySwitchCost;
  // Number of page colors each private footprint cache is divided into
  // (1..64) on a colored machine (the rt workloads); 0, the default, leaves
  // the caches uncolored. Colors need a flat topology (Validate).
  size_t num_colors = 0;
  // Speed of this machine's processors relative to the base Symmetry, in
  // [2^-10, 2^10] (Validate): far outside it, scaled durations leave the
  // integer-nanosecond clock's range.
  double processor_speed = 1.0;
  // Cache size relative to the base Symmetry, in [2^-10, 2^10].
  double cache_size_factor = 1.0;
  SharedBus::Config bus;
  // Machine hierarchy (clusters, nodes, shared LLCs). The default
  // symmetry-flat spec reproduces the paper's bus machine byte-identically.
  TopologySpec topology;

  // Returns an empty string if the configuration is buildable, else a
  // human-readable error (zero or more than kMaxProcessors processors,
  // zero-capacity cache levels, ...).
  // Machine's constructor enforces this; parsers surface it as a clean error.
  std::string Validate() const;

  double CapacityBlocks() const {
    return static_cast<double>(geometry.TotalLines()) * cache_size_factor;
  }

  // Miss service shrinks as sqrt(processor_speed): memory keeps up with the
  // processor only partially (Section 7.1.3).
  double MissServiceSeconds() const {
    return ToSeconds(miss_service) / std::sqrt(processor_speed);
  }

  // Wall time to execute `work` (expressed in base-machine processor-seconds).
  SimDuration ComputeTime(SimDuration work) const {
    return static_cast<SimDuration>(static_cast<double>(work) / processor_speed);
  }

  SimDuration SwitchCost() const { return ComputeTime(switch_cost); }
};

// One processor: a private cache plus affinity history — an ordered list of
// the last T tasks to have run here (Section 5.3; the paper evaluates T = 1
// and notes deeper histories as a variation).
class Processor {
 public:
  explicit Processor(FootprintCache cache, size_t history_depth = 1)
      : history_depth_(history_depth), cache_(std::move(cache)) {}

  FootprintCache& cache() { return cache_; }
  const FootprintCache& cache() const { return cache_; }

  // History: the last task to have run on this processor.
  CacheOwner last_task() const { return history_.MostRecent(kNoOwner); }

  // Most-recent-first list of the last T distinct tasks to have run here.
  std::span<const CacheOwner> recent_tasks() const { return history_.items(); }

  // Re-dispatching a remembered task moves it to the front.
  void RecordDispatch(CacheOwner task) { history_.Record(task, history_depth_); }

 private:
  size_t history_depth_;
  FootprintCache cache_;
  RecencyList<CacheOwner> history_;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  const MachineConfig& config() const { return config_; }
  size_t num_processors() const { return processors_.size(); }
  Processor& processor(size_t i);
  const Processor& processor(size_t i) const;
  SharedBus& bus() { return bus_; }
  const Topology& topology() const { return topology_; }

  // The shared LLC of `cluster`; the topology must have an LLC tier.
  const FootprintCache& llc(size_t cluster) const;

  struct ChunkExecution {
    SimDuration wall = 0;        // total wall time including miss stalls
    SimDuration stall = 0;       // portion spent waiting on misses
    double reload_misses = 0.0;  // affinity-related misses
    double steady_misses = 0.0;
    // `stall` split between the two kinds of miss, in proportion to their
    // priced weight (ExecuteChunk).
    SimDuration reload_stall = 0;
    SimDuration steady_stall = 0;
    SimDuration reload_llc = 0;     // portion of reload_stall filled from the LLC
    SimDuration reload_remote = 0;  // portion filled across the interconnect
  };

  // Executes `work` (base-machine processor-seconds) of `owner` on processor
  // `proc` starting at time `now`, evolving the cache and bus state. First,
  // `owed` blocks of `owner`'s footprint leave this cache: invalidations by
  // its siblings' shared writes (the Symmetry's invalidation-based protocol,
  // settled lazily by the engine), charged to the bus with the chunk's misses.
  //
  // On a hierarchical topology each reload miss has a source. Blocks of the
  // owner's footprint that `proc`'s cluster LLC still holds refill from
  // there (LLC hits); when the owner last ran on another node, the reloads
  // the LLC cannot serve cross the interconnect from that node's memory
  // (remote fills); the rest fill from local memory. The chunk then evolves
  // the owner's LLC footprint as it does the private one, and the owner's
  // node is recorded.
  //
  // One formula prices every chunk. A reload miss weighs one miss service
  // when it fills from local memory, llc_hit_factor of one when the cluster
  // LLC serves it and remote_multiplier when it crosses the interconnect; a
  // steady-state miss weighs one. With w the reload weight and s the steady
  // misses, stall = (w + s) x miss service x bus inflation, of which
  // reload_stall takes the w / (w + s) share. A flat machine has no LLC hits
  // and no remote fills, so w is its reload count.
  ChunkExecution ExecuteChunk(SimTime now, size_t proc, CacheOwner owner,
                              const WorkingSetParams& ws, SimDuration work, double owed = 0.0);

  // Settles invalidations outside a chunk: removes up to `blocks` of
  // `owner`'s footprint from `proc`'s cache, and as much from its LLC copy,
  // and charges them to the bus.
  void Invalidate(SimTime now, size_t proc, CacheOwner owner, double blocks);

  // Thread turnover on `proc` (CacheModel::ReplaceOwnerData): `owner`'s next
  // thread reuses only `keep_fraction` of its data, in the private cache and
  // in the cluster LLC alike.
  void ReplaceOwnerData(size_t proc, CacheOwner owner, double keep_fraction);

 private:
  static constexpr size_t kNoNode = static_cast<size_t>(-1);

  // `proc`'s cluster LLC, or nullptr when the topology has no LLC tier.
  FootprintCache* LlcOf(size_t proc) {
    return llcs_.empty() ? nullptr : &llcs_[topology_.ClusterOf(proc)];
  }

  // Removes up to `blocks` of `owner`'s footprint from `proc`'s cache and
  // returns the amount removed. An invalidation removes a line machine-wide,
  // so the LLC copy loses that same amount.
  double Eject(size_t proc, CacheOwner owner, double blocks);

  MachineConfig config_;
  // config_.MissServiceSeconds(), taken once: it costs a square root and two
  // divisions, and every chunk reads it.
  double miss_service_s_;
  Topology topology_;
  std::vector<Processor> processors_;
  // One LLC per cluster, shared by its processors and counted in the same
  // working-set blocks, so a task's footprint can outlive its private copy.
  // Empty when the topology has no LLC tier.
  std::vector<FootprintCache> llcs_;
  // Indexed by owner id (worker ids are dense from 1): the node each owner
  // last ran on, kNoNode past the end. Kept only on machines of several
  // nodes, the only ones with remote fills.
  std::vector<size_t> last_node_;
  SharedBus bus_;
};

}  // namespace affsched

#endif  // SRC_MACHINE_MACHINE_H_
