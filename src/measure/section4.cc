#include "src/measure/section4.h"

#include <algorithm>
#include <deque>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace affsched {

namespace {

// Sequential executor of a thread graph on one simulated processor.
class SequentialProgram {
 public:
  SequentialProgram(const AppProfile& profile, CacheOwner owner, uint64_t seed)
      : profile_(profile), owner_(owner) {
    Rng rng(seed);
    graph_ = profile.build_graph(rng);
    graph_->Start();
    for (size_t node : graph_->initial_ready()) {
      ready_.push_back(node);
    }
    if (!ready_.empty()) {
      current_node_ = ready_.front();
      ready_.pop_front();
      remaining_ = graph_->work(current_node_);
    }
  }

  bool Finished() const { return graph_->Finished(); }
  CacheOwner owner() const { return owner_; }
  const WorkingSetParams& working_set() const { return profile_.working_set; }

  // Executes up to `max_work` of useful work on `machine`/processor 0 at
  // `now`; returns the wall time consumed. Advances through the thread graph,
  // applying the footprint-overlap turnover at thread boundaries.
  SimDuration Step(Machine& machine, SimTime now, SimDuration max_work) {
    AFF_CHECK(!Finished());
    AFF_CHECK(remaining_ > 0);
    const SimDuration work = std::min(max_work, remaining_);
    const Machine::ChunkExecution exec =
        machine.ExecuteChunk(now, 0, owner_, profile_.working_set, work);
    remaining_ -= work;
    if (remaining_ == 0) {
      for (size_t n : graph_->Complete(current_node_)) {
        ready_.push_back(n);
      }
      machine.ReplaceOwnerData(0, owner_, profile_.thread_overlap);
      if (!ready_.empty()) {
        current_node_ = ready_.front();
        ready_.pop_front();
        remaining_ = graph_->work(current_node_);
      }
    }
    return exec.wall;
  }

 private:
  const AppProfile& profile_;
  CacheOwner owner_;
  std::unique_ptr<ThreadGraph> graph_;
  std::deque<size_t> ready_;
  size_t current_node_ = 0;
  SimDuration remaining_ = 0;
};

}  // namespace

Section4Result RunSection4(const MachineConfig& machine_config, const AppProfile& measured,
                           Section4Treatment treatment, const AppProfile* intervening,
                           const Section4Options& options, uint64_t seed) {
  AFF_CHECK(options.q > 0);
  AFF_CHECK(options.chunk > 0);
  if (treatment == Section4Treatment::kMultiprog) {
    AFF_CHECK_MSG(intervening != nullptr, "multiprog treatment needs an intervening program");
  }

  MachineConfig single = machine_config;
  single.num_processors = 1;
  Machine machine(single);

  constexpr CacheOwner kMeasuredOwner = 1;
  constexpr CacheOwner kInterveningOwner = 2;
  SequentialProgram program(measured, kMeasuredOwner, seed);

  // The intervening "program" never completes; only its cache behaviour
  // matters, so it is modelled as an endless worker with the intervening
  // application's working-set parameters.
  const WorkingSetParams* intervening_ws =
      intervening != nullptr ? &intervening->working_set : nullptr;

  Section4Result result;
  SimTime now = 0;  // wall clock of the simulated processor

  while (!program.Finished()) {
    // One scheduling window: run the measured program for Q of wall time
    // (or until it completes).
    SimDuration window_left = options.q;
    while (window_left > 0 && !program.Finished()) {
      const SimDuration wall = program.Step(machine, now, options.chunk);
      now += wall;
      result.response_s += ToSeconds(wall);
      window_left -= wall;
    }
    if (program.Finished()) {
      break;
    }

    // Rescheduling point: the switch path length is paid in every treatment.
    ++result.switches;
    now += single.SwitchCost();
    result.response_s += ToSeconds(single.SwitchCost());

    switch (treatment) {
      case Section4Treatment::kStationary:
        break;
      case Section4Treatment::kMigrating:
        machine.processor(0).cache().Flush();
        break;
      case Section4Treatment::kMultiprog: {
        // The intervening task runs for Q of wall time; that time is not part
        // of the measured program's response.
        SimDuration other_left = options.q;
        while (other_left > 0) {
          const Machine::ChunkExecution exec = machine.ExecuteChunk(
              now, 0, kInterveningOwner, *intervening_ws,
              std::min<SimDuration>(options.chunk, other_left));
          now += exec.wall;
          other_left -= exec.wall;
        }
        break;
      }
    }
  }
  return result;
}

CachePenalties MeasureCachePenalties(const MachineConfig& machine, const AppProfile& measured,
                                     const AppProfile& intervening,
                                     const Section4Options& options, uint64_t seed) {
  const Section4Result stationary =
      RunSection4(machine, measured, Section4Treatment::kStationary, nullptr, options, seed);
  const Section4Result migrating =
      RunSection4(machine, measured, Section4Treatment::kMigrating, nullptr, options, seed);
  const Section4Result multiprog =
      RunSection4(machine, measured, Section4Treatment::kMultiprog, &intervening, options, seed);

  CachePenalties penalties;
  if (migrating.switches > 0) {
    penalties.pna_us = (migrating.response_s - stationary.response_s) /
                       static_cast<double>(migrating.switches) * 1e6;
  }
  if (multiprog.switches > 0) {
    penalties.pa_us = (multiprog.response_s - stationary.response_s) /
                      static_cast<double>(multiprog.switches) * 1e6;
  }
  return penalties;
}

}  // namespace affsched
