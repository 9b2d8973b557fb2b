// Open-system load sweeps: policy x offered-load x arrival-process grids.
//
// The closed sweeps (src/runner/sweep.h) reproduce the paper's batch
// experiments: a fixed workload mix started at t = 0, response times compared
// across policies. The open sweep asks the question the paper's Section 6
// gestures at: how do the policies behave under a *stream* of arriving jobs
// as the offered load rho approaches saturation? Each cell runs the
// OpenSystemDriver at one (policy, arrival process, rho, replication)
// coordinate and reports latency percentiles, queue behaviour and the
// Little's-law self-check.
//
// Offered load calibration: rho = lambda * E[demand] / (P * speed), where
// E[demand] is the mean total work of a job (estimated by a deterministic
// probe over the application set, independent of the sweep seed) and
// P * speed is the machine's aggregate service capacity. The runner derives
// each cell's mean inter-arrival time from rho, so "rho=0.9" means the same
// thing on any machine shape.
//
// Determinism matches the closed runner: cell seeds come from
// DeriveOpenCellSeed (policy excluded — common random numbers), cells fold
// into preallocated slots, and the JSON is byte-identical at any worker
// count. Open sweeps serialize as schema_version 2 with "mode":"open";
// closed sweeps remain schema 1, and readers accept both.
//
// With GridSpec::rt set, each cell also reports deadline-miss counts: a
// completed job misses when its sojourn (queue wait plus service) exceeds its
// relative deadline; rejected jobs are excluded. The document stays schema
// 2, and the extra fields appear only when rt is set.

#ifndef SRC_OPENSYS_OPEN_SWEEP_H_
#define SRC_OPENSYS_OPEN_SWEEP_H_

#include <functional>
#include <string>
#include <vector>

#include "src/opensys/driver.h"
#include "src/runner/grid_spec.h"

namespace affsched {

enum class ArrivalKind {
  kPoisson,
  kOnOff,
};

// CLI/JSON identifier ("poisson", "onoff").
std::string ArrivalKindName(ArrivalKind kind);
bool ArrivalKindFromName(const std::string& name, ArrivalKind* kind);

struct OpenSweepSpec : GridSpec {
  // Draw weights over `apps`.
  std::vector<double> app_weights;

  // Grid axes (with GridSpec::policies).
  std::vector<ArrivalKind> arrivals;
  std::vector<double> rhos;  // offered loads, each in (0, 1.5]
  size_t replications = 1;

  // Arrivals generated per cell (the run drains completely, so this bounds
  // the cell's length).
  size_t jobs_per_cell = 80;

  // Admission rule (see src/opensys/admission.h): mpl_cap == 0 unbounded;
  // max_queue >= 0 enables load shedding and needs mpl_cap > 0.
  size_t mpl_cap = 0;
  int64_t max_queue = -1;

  // On/off burstiness: during a burst the arrival rate is burst_factor times
  // the cell's mean rate, and a burst contains burst_arrivals arrivals on
  // average. Off phases are sized so the long-run mean rate still matches rho.
  double onoff_burst_factor = 4.0;
  double onoff_burst_arrivals = 12.0;

  OpenSystemOptions open;

  size_t Cells() const {
    return policies.size() * arrivals.size() * rhos.size() * replications;
  }
};

// rho as an exact per-mille integer (the seed coordinate): 0.7 -> 700.
int RhoPermille(double rho);

// Presets, both on PaperMachineConfig() + the small application profiles
// (seconds of work per job, so a full grid stays interactive).
OpenSweepSpec OpenSysSpec();       // 3 policies x 6 rhos x {poisson, onoff}
OpenSweepSpec OpenSysSmokeSpec();  // 2 policies x 2 rhos x poisson

// Parses an open sweep spec string: a preset name ("opensys",
// "opensys-smoke"), a "key=value;..." list (starting from the opensys grid),
// or a preset plus overrides. Keys: the shared grid keys
// (src/runner/grid_spec.h), plus rhos (comma-separated), arrivals
// (comma-separated kinds), count (arrivals per cell, at most
// kMaxArrivalsPerCell), reps (at most kMaxReplications; both in
// src/runner/sweep.h), mpl-cap, max-queue (needs mpl-cap > 0), warmup ("mser"
// or a fraction) and burst (on/off burst factor, in (1, 1000]).
bool ParseOpenSweepSpec(const std::string& text, OpenSweepSpec* spec, std::string* error);

// Deterministic mean job demand in seconds of base-machine work: a fixed
// probe (independent of the sweep seed) builds a few graphs per application
// and weight-averages their total work. Used to map rho to an arrival rate.
double MeanServiceDemandSeconds(const std::vector<AppProfile>& apps,
                                const std::vector<double>& app_weights);

struct OpenCellResult {
  PolicyKind policy = PolicyKind::kDynamic;
  ArrivalKind arrivals = ArrivalKind::kPoisson;
  double rho = 0.0;
  size_t replication = 0;
  uint64_t seed = 0;
  OpenSystemResult result;
  // Real-time accounting (populated only when the spec has rt set):
  // completed jobs carrying an active deadline, and how many missed it.
  size_t deadline_checked = 0;
  uint64_t deadline_misses = 0;
};

struct OpenSweepResult {
  OpenSweepSpec spec;
  double mean_demand_s = 0.0;
  std::vector<OpenCellResult> cells;  // arrival-major, rho, policy, replication
  // Wall-clock of the Run() call; informational, never serialized.
  double wall_seconds = 0.0;

  // True if every cell's Little's-law check passed (the identity holds for
  // shedding cells too: rejected jobs appear on neither side).
  bool AllLittlesLawOk() const;

  // Schema version 2, "mode":"open". Deterministic bytes for a given spec.
  std::string ToJson() const;
  bool WriteJsonFile(const std::string& path) const;
};

struct OpenSweepRunnerOptions {
  // Worker threads; 0 means WorkerPool::DefaultThreadCount().
  size_t jobs = 0;
  // Called on the orchestration thread as cells complete.
  std::function<void(size_t completed, size_t total)> progress;
};

class OpenSweepRunner {
 public:
  explicit OpenSweepRunner(const OpenSweepRunnerOptions& options = {});

  // Executes the grid. Cell exceptions propagate after the pool quiesces
  // (lowest cell index wins, deterministically).
  OpenSweepResult Run(const OpenSweepSpec& spec) const;

 private:
  OpenSweepRunnerOptions options_;
};

}  // namespace affsched

#endif  // SRC_OPENSYS_OPEN_SWEEP_H_
