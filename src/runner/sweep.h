// Sweep grids: the declarative description of a (policy x mix x replication)
// experiment grid, and the machine-readable results a SweepRunner produces
// from one.
//
// A sweep expands into independent cells — one simulation per (policy, mix,
// replication) — whose seeds come from DeriveCellSeed, so any execution
// order yields the same SweepResult. ToJson() emits a stable, schema-
// versioned document (no wall-clock, no hostnames) that is byte-identical
// across worker counts and machines; CI diffs it against a committed
// baseline. With SweepSpec::observability the document becomes
// schema_version 3 and gains a top-level "observability" object holding a
// per-experiment affinity-efficiency summary:
//   "observability": {"experiments": [
//     {"policy": "dyn-aff", "mix": 5,
//      "reload_transient_fraction": ..., "affine_fraction": ...,
//      "migrations": {"same_core": ..., "same_cluster": ...,
//                     "same_node": ..., "cross_node": ...}}]}
// With GridSpec::rt the document is also schema_version 3: mean_stats gain
// per-job deadline, tardiness and worst-reload fields, and a top-level "rt"
// block holds the deadline-miss rate, tardiness percentiles and
// worst-case-observed reload per experiment.
//
// JSON schema (schema_version 1), field order fixed:
//   {
//     "schema_version": 1,
//     "tool": "sweep_runner",
//     "spec": {
//       "name": "fig5", "root_seed": 1000,
//       "machine": {"procs": 16, "speed": 1, "cache": 1},
//       "policies": ["equi", "dynamic", ...],       // CLI names
//       "mixes": [1, 2, ...],                        // Table 2 numbers
//       "replications": {"min": 3, "max": 5, "precision": 0.02,
//                        "confidence": 0.95}
//     },
//     "experiments": [                               // mix-major, then policy
//       {"policy": "equi", "mix": 5, "replications": 3,
//        "jobs": [{"index": 0, "app": "MATRIX",
//                  "mean_response_s": ..., "ci_half_width_s": ...,
//                  "mean_stats": {"useful_work_s": ..., "reload_stall_s": ...,
//                    "steady_stall_s": ..., "switch_s": ..., "waste_s": ...,
//                    "alloc_integral_s": ..., "reallocations": ...,
//                    "affinity_dispatches": ..., "affinity_fraction": ...,
//                    "realloc_interval_s": ..., "avg_alloc": ...}}],
//        "cells": [{"rep": 0, "seed": 123456789, "makespan_s": ...,
//                   "response_s": [...]}]}],
//     "relative_response": [                         // present when the grid
//       {"mix": 5, "policy": "dynamic", "job": 0,    // includes Equipartition
//        "app": "MATRIX", "ratio": 0.97}]
//   }
// Seeds are unquoted decimal integers (64-bit values round-trip exactly
// through text; parsers with big-int support read them losslessly).

#ifndef SRC_RUNNER_SWEEP_H_
#define SRC_RUNNER_SWEEP_H_

#include <string>
#include <vector>

#include "src/measure/experiment.h"
#include "src/measure/mixes.h"
#include "src/runner/grid_spec.h"

namespace affsched {

struct SweepSpec : GridSpec {
  std::vector<WorkloadMix> mixes;  // Table 2 mixes, indexing into `apps`
  ReplicationOptions replication;
  EngineOptions engine;
  // Opt-in schema-v3 "observability" block in ToJson(): per-experiment
  // affinity-efficiency derivations (reload-transient fraction, affine
  // fraction, the per-tier migration matrix). Off by default so the default
  // document stays byte-identical to schema_version 1 (pinned by
  // tests/golden/). Spec key: observability=1.
  bool observability = false;

  // Total cells at the minimum replication count (scheduling lower bound).
  size_t MinCells() const;
};

// Preset grids. Each uses PaperMachineConfig() + DefaultProfiles().
SweepSpec Fig5Spec();    // 4 policies x 6 mixes, adaptive reps 3-5, seed 1000
SweepSpec Table3Spec();  // dynamic family x mix 5, adaptive reps 3-5, seed 555
SweepSpec FutureSpec();  // 4 policies x 6 mixes, adaptive reps 3-4, seed 8000
SweepSpec SmokeSpec();   // 3 policies x mixes {1,5}, fixed 2 reps, seed 1000
// Equipartition + the MQMS steal family on a hierarchical machine (tiers 1-3
// all distinct), mixes {1,5}, fixed 2 reps, seed 1000, 50ms balance ticks.
// When the grid contains an mq-* policy, per-job mean_stats gain a
// "steals":{"same_cluster","same_node","cross_node"} block and a
// "balance_migrations" count; non-mq documents are byte-identical to before.
SweepSpec MqSpec();
// Real-time preset: dyn-aff vs the static rt policies on an 8-color
// partitioned machine, mixes {1,5}, fixed 2 reps, seed 1000, soft deadline
// mix. The document is schema v3 with the "rt" block described above.
SweepSpec RtSpec();

// Parses a sweep spec string: either a preset name ("fig5", "table3",
// "future", "smoke", "mq", "rt"), a "key=value;key=value" list (starting from
// the fig5 grid), or a preset followed by overrides ("fig5;reps=2;procs=8").
// Keys: the shared grid keys (src/runner/grid_spec.h), plus mixes
// (comma-separated Table 2 numbers), reps (N fixed or MIN-MAX adaptive),
// precision, observability (0/1 — schema-v3 affinity-efficiency block) and
// balance-interval (milliseconds between load-balance ticks, 0 to
// kMaxBalanceIntervalMs; 0 turns balancing off). reps is at most
// kMaxReplications. Returns false and sets `error` on malformed input.
bool ParseSweepSpec(const std::string& text, SweepSpec* spec, std::string* error);

// Upper bound on a balance interval, in milliseconds: 1000 simulated
// seconds, longer than any run here, and far inside the range the
// conversion to integer nanoseconds can represent.
inline constexpr double kMaxBalanceIntervalMs = 1e6;

// Upper bounds on the replication counts of closed and open sweeps (reps)
// and on the arrivals per open cell (count). The runners allocate per
// replication and per arrival up front, so a value that parses must also
// fit in memory; both caps sit far above any grid here.
inline constexpr size_t kMaxReplications = 1000;
inline constexpr size_t kMaxArrivalsPerCell = 1000000;

// One executed cell: a whole simulation at a derived seed.
struct CellResult {
  size_t replication = 0;
  uint64_t seed = 0;
  RunResult run;
};

// One (policy, mix) experiment: the replicated aggregate plus the per-cell
// rows it was folded from.
struct ExperimentResult {
  PolicyKind policy = PolicyKind::kDynamic;
  WorkloadMix mix;
  ReplicatedResult replicated;
  std::vector<CellResult> cells;  // replication order
};

struct SweepResult {
  SweepSpec spec;
  std::vector<ExperimentResult> experiments;  // mix-major, then policy
  // Wall-clock of the Run() call. Informational only — never serialized
  // (ToJson output must not depend on the executing machine).
  double wall_seconds = 0.0;

  // Locates the experiment for (policy, mix number); nullptr if absent.
  const ExperimentResult* Find(PolicyKind policy, int mix_number) const;

  std::string ToJson() const;
  bool WriteJsonFile(const std::string& path) const;
};

}  // namespace affsched

#endif  // SRC_RUNNER_SWEEP_H_
