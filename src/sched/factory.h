// Convenience constructors for the paper's policy line-up.

#ifndef SRC_SCHED_FACTORY_H_
#define SRC_SCHED_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sched/policy.h"

namespace affsched {

enum class PolicyKind {
  kEquipartition,
  kDynamic,
  kDynAff,
  kDynAffNoPri,
  kDynAffDelay,
  kDynAffCluster,
  kDynAffNode,
  kTimeShare,
  kTimeShareAff,
  kMqNoSteal,
  kMqSibling,
  kMqCluster,
  kMqNuma,
  kRtStaticAffinity,
  kRtColorIso,
};

// Default hold time for Dyn-Aff-Delay.
inline constexpr SimDuration kDefaultYieldDelay = Milliseconds(20);

std::unique_ptr<Policy> MakePolicy(PolicyKind kind);

std::string PolicyKindName(PolicyKind kind);

// Stable lowercase identifier for command lines, sweep specs and JSON keys
// ("equi", "dyn-aff", ...), as opposed to the display name above.
std::string PolicyKindCliName(PolicyKind kind);

// Parses the short command-line names used by simctl and the sweep specs
// ("equi", "dynamic", "dyn-aff", "dyn-aff-nopri", "dyn-aff-delay",
// "dyn-aff-cluster", "dyn-aff-node", "timeshare", "timeshare-aff",
// "mq-nosteal", "mq-sibling", "mq-cluster", "mq-numa", "rt-static-affinity",
// "rt-color-iso").
// Returns false on an unknown name.
bool PolicyKindFromName(const std::string& name, PolicyKind* kind);

// The policies Figure 5 compares against Equipartition, in paper order.
std::vector<PolicyKind> DynamicFamily();

// The multi-queue (MQMS) steal-policy family, no-steal baseline first, then
// by widening steal radius (src/sched/multiqueue.h).
std::vector<PolicyKind> MqPolicyFamily();

// True for the multi-queue kinds (they report per-tier steal/balance
// counters the centralized policies never touch).
bool IsMqPolicy(PolicyKind kind);

// For a multi-queue kind, the `steal=` axis value ("nosteal", "sibling",
// "cluster", "numa"); parses the reverse direction too.
std::string StealPolicyName(PolicyKind kind);
bool PolicyKindFromStealName(const std::string& name, PolicyKind* kind);

// The static real-time policies (src/sched/rt_static.h), span-only variant
// first, then with per-job color isolation.
std::vector<PolicyKind> RtPolicyFamily();

// True for the static real-time kinds (their runs report deadline/tardiness
// terms the best-effort policies never produce).
bool IsRtPolicy(PolicyKind kind);

}  // namespace affsched

#endif  // SRC_SCHED_FACTORY_H_
