// The simulation engine: executes multiprogrammed parallel jobs on the
// simulated machine under a processor-allocation policy.
//
// Engine is a thin composition root over four layered components that share
// one EngineCore state block:
//
//   * EventQueue (src/sim/)            — pooled, zero-allocation event core;
//   * CacheModel via Machine           — the cache substrate chunks run on;
//   * Dispatcher (dispatcher.h)        — worker selection, chunk execution,
//                                        reload-miss realisation;
//   * AllocatorProtocol                — the Section-5 job<->allocator
//     (allocator_protocol.h)             negotiation and reallocation
//                                        mechanics;
//   * Accounting (accounting.h)        — every response-time-model term and
//                                        all telemetry.
//
// Engine itself owns job submission, the run loop, sampling, and the
// SchedView interface policies consult.

#ifndef SRC_ENGINE_ENGINE_H_
#define SRC_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/engine/accounting.h"
#include "src/engine/allocator_protocol.h"
#include "src/engine/dispatcher.h"
#include "src/engine/engine_core.h"
#include "src/telemetry/sampler.h"

namespace affsched {

class Engine : public SchedView {
 public:
  using Options = EngineOptions;

  Engine(const MachineConfig& machine_config, std::unique_ptr<Policy> policy, uint64_t seed,
         const Options& options = Options());

  // Submits a job of the given application, arriving at `arrival`.
  // Must be called before Run().
  JobId SubmitJob(const AppProfile& profile, SimTime arrival = 0);

  // Admits a job mid-run (open-system mode): the job enters service at the
  // current simulated time. `queued_since` is when it originally arrived at
  // the admission queue (<= now); the difference is accounted as
  // JobStats::queue_wait_s, separate from in-service response time. The
  // thread graph is built from `graph_seed`'s own deterministic stream rather
  // than the engine RNG, so workload draws stay identical across policies
  // (common random numbers) no matter how admission dynamics differ.
  JobId AdmitJob(const AppProfile& profile, SimTime queued_since, uint64_t graph_seed);

  // Schedules an external open-system event (an arrival-stream tick). Pending
  // external events keep Run() alive even when no submitted job remains, so
  // arrival streams can span idle periods. `fn` follows EventQueue callable
  // rules (trivially copyable, pointer/scalar captures only).
  template <typename F>
  void ScheduleExternal(SimTime when, F fn) {
    ++core_.external_pending;
    EngineCore* core = &core_;
    core_.queue.ScheduleAt(when, [core, fn] {
      --core->external_pending;
      fn();
    });
  }

  // Installs a hook invoked at each job completion, after the departure is
  // accounted but before the policy reacts. Open-system drivers admit queued
  // jobs from it. Call before Run().
  void SetCompletionHook(std::function<void(JobId)> hook);

  // Runs the simulation until all submitted jobs complete and no external
  // events remain. Returns the completion time of the last job.
  SimTime Run();

  // Streams scheduling events to `sink` (nullptr disables tracing). The sink
  // must outlive the engine.
  void SetTraceSink(TraceSink* sink) { core_.trace = sink; }

  // Streams decision-provenance records (why each assignment happened,
  // candidate scores included) to `sink`; nullptr (the default) disables at
  // the cost of one pointer compare per realised assignment. The sink must
  // outlive the engine.
  void SetDecisionSink(DecisionSink* sink) { core_.decisions = sink; }

  // Collects per-job lifecycle spans (arrival, queue wait, dispatches,
  // migrations, completion); nullptr detaches. The collector must outlive
  // the engine. Call before Run().
  void SetSpanCollector(JobSpanCollector* spans) { acct_.SetSpanCollector(spans); }

  // Attaches a metrics registry (nullptr detaches). The engine writes its
  // counters/gauges/histograms under "engine.*", "policy.*" and "bus.*".
  // Totals JobStats holds (stalls, waste, dispatches, migrations, per-job
  // counters...) are written once, when Run() returns; event, chunk and
  // policy-decision counts stream as the run proceeds. When detached (the
  // default) every instrumentation site costs one null check. The registry
  // must outlive the engine. Call before Run().
  void SetMetrics(MetricsRegistry* registry) { acct_.SetMetrics(registry); }

  // Attaches a time-series sampler (nullptr detaches). Run() installs the
  // standard probes — per-job allocation and runnable demand, a rolling
  // %affinity window, active jobs, bus utilisation — then samples on the
  // sampler's cadence for as long as jobs remain. Callers may add their own
  // probes before Run(). The sampler must outlive the engine.
  void SetSampler(Sampler* sampler);

  // --- Results ---------------------------------------------------------------

  size_t job_count() const { return core_.jobs.size(); }
  const Job& job(JobId id) const;
  const JobStats& job_stats(JobId id) const { return job(id).stats(); }
  const std::string& job_name(JobId id) const { return job(id).name(); }
  const WeightedHistogram* parallelism_histogram(JobId id) const;

  const Machine& machine() const { return core_.machine; }
  SimTime now() const { return core_.queue.now(); }
  const Policy& policy() const { return *core_.policy; }
  // Event-core churn counters (`simctl --engine-stats`).
  const EventQueue::Stats& event_queue_stats() const { return core_.queue.stats(); }

  // --- SchedView -------------------------------------------------------------

  size_t NumProcessors() const override;
  std::vector<JobId> ActiveJobs() const override;
  size_t Allocation(JobId job) const override;
  size_t EffectiveAllocation(JobId job) const override;
  size_t MaxParallelism(JobId job) const override;
  size_t PendingDemand(JobId job) const override;
  JobId ProcessorJob(size_t proc) const override;
  bool WillingToYield(size_t proc) const override;
  bool ReassignmentPending(size_t proc) const override;
  CacheOwner LastTaskOn(size_t proc) const override;
  std::vector<CacheOwner> RecentTasksOn(size_t proc) const override;
  bool TaskRunnable(CacheOwner task) const override;
  JobId TaskJob(CacheOwner task) const override;
  size_t DesiredProcessor(JobId job) const override;
  double Priority(JobId job) const override;
  size_t DistanceTier(size_t from, size_t to) const override;
  double ReloadCostSeconds(JobId job, size_t proc) const override;
  double WorkingSetBlocks(JobId job) const override;
  double SharedWriteRate(JobId job) const override;
  double DeadlineSeconds(JobId job) const override;
  size_t NumColors() const override;

 private:
  JobId SubmitJobInternal(const AppProfile& profile, SimTime arrival, SimTime queued_since,
                          Rng graph_rng);
  void OnJobArrival(JobId id);

  // Registers the standard probes and starts the recurring sampling event.
  void StartSampling();
  void SamplerTick();

  // Starts the periodic load-balance tick when the policy (or the
  // EngineOptions override) asks for one; no-op otherwise.
  void StartBalancing();
  void BalanceTick(SimDuration cadence);

  // Prints processor and job state to stderr (deadlock diagnosis).
  void DumpState() const;

  EngineCore core_;
  Accounting acct_;
  Dispatcher dispatcher_;
  AllocatorProtocol alloc_;
  Sampler* sampler_ = nullptr;
};

}  // namespace affsched

#endif  // SRC_ENGINE_ENGINE_H_
