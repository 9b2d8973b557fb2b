// What closed sweeps (src/runner/sweep.h) and open sweeps
// (src/opensys/open_sweep.h) share: the machine, the application set, the
// policy axis, the root seed and the real-time stamp; the ten spec keys that
// address them; and the "spec" JSON fields that record them. An axis both
// modes accept is added here once.

#ifndef SRC_RUNNER_GRID_SPEC_H_
#define SRC_RUNNER_GRID_SPEC_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/spec_grammar.h"
#include "src/machine/machine.h"
#include "src/sched/factory.h"
#include "src/workload/app_profile.h"

namespace affsched {

struct GridSpec {
  // The spec text the grid was parsed from (a preset name, or the full text
  // with its overrides), for provenance.
  std::string name;
  MachineConfig machine;
  // Application set jobs are drawn from ({MVA, MATRIX, GRAVITY} order).
  std::vector<AppProfile> apps;
  std::vector<PolicyKind> policies;
  uint64_t root_seed = 0;
  // Real-time mode: stamp the deadline mix onto the jobs and report
  // deadline accounting. Off by default so non-rt documents stay
  // byte-identical.
  bool rt = false;
  std::string deadline_mix = "soft";
};

// Applies one of the keys both sweep grammars accept: policies, steal, seed,
// procs, speed, cache, topology, colors, rt, deadline-mix (README lists the
// value ranges). Each grammar tries its own keys first and ends here, so any
// other key fails as "unknown <what> spec key".
bool ApplyGridKey(const std::string& key, const std::string& value, const std::string& what,
                  GridSpec* spec, std::string* error);

// Writes ',"spec":{' then name, root_seed, the "machine" object and
// policies. The caller appends its own axes and closes with
// AppendGridSpecJsonTail, which adds the rt fields when rt is set.
void AppendGridSpecJsonHead(const GridSpec& spec, std::ostream& o);
void AppendGridSpecJsonTail(const GridSpec& spec, std::ostream& o);

}  // namespace affsched

#endif  // SRC_RUNNER_GRID_SPEC_H_
