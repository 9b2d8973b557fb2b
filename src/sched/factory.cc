#include "src/sched/factory.h"

#include "src/common/check.h"
#include "src/sched/dynamic.h"
#include "src/sched/equipartition.h"
#include "src/sched/multiqueue.h"
#include "src/sched/rt_static.h"
#include "src/sched/timeshare.h"

namespace affsched {

std::unique_ptr<Policy> MakePolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kEquipartition:
      return std::make_unique<Equipartition>();
    case PolicyKind::kDynamic:
      return std::make_unique<DynamicPolicy>(DynamicOptions{});
    case PolicyKind::kDynAff:
      return std::make_unique<DynamicPolicy>(DynamicOptions{.use_affinity = true});
    case PolicyKind::kDynAffNoPri:
      return std::make_unique<DynamicPolicy>(
          DynamicOptions{.use_affinity = true, .enforce_priority = false});
    case PolicyKind::kDynAffDelay:
      return std::make_unique<DynamicPolicy>(
          DynamicOptions{.use_affinity = true, .yield_delay = kDefaultYieldDelay});
    case PolicyKind::kDynAffCluster:
      return std::make_unique<DynamicPolicy>(
          DynamicOptions{.use_affinity = true, .affinity_tier = 1});
    case PolicyKind::kDynAffNode:
      return std::make_unique<DynamicPolicy>(
          DynamicOptions{.use_affinity = true, .affinity_tier = 2});
    case PolicyKind::kTimeShare:
      return std::make_unique<TimeSharePolicy>(TimeShareOptions{});
    case PolicyKind::kTimeShareAff:
      return std::make_unique<TimeSharePolicy>(TimeShareOptions{.use_affinity = true});
    case PolicyKind::kMqNoSteal:
      return std::make_unique<MultiQueuePolicy>(MultiQueueOptions{.steal_tier = 0});
    case PolicyKind::kMqSibling:
      return std::make_unique<MultiQueuePolicy>(MultiQueueOptions{.steal_tier = 1});
    case PolicyKind::kMqCluster:
      return std::make_unique<MultiQueuePolicy>(MultiQueueOptions{.steal_tier = 2});
    case PolicyKind::kMqNuma:
      return std::make_unique<MultiQueuePolicy>(MultiQueueOptions{.steal_tier = 3});
    case PolicyKind::kRtStaticAffinity:
      return std::make_unique<RtStaticPolicy>(RtStaticOptions{});
    case PolicyKind::kRtColorIso:
      return std::make_unique<RtStaticPolicy>(RtStaticOptions{.isolate_colors = true});
  }
  AFF_CHECK_MSG(false, "unknown policy kind");
}

std::string PolicyKindName(PolicyKind kind) { return MakePolicy(kind)->name(); }

std::string PolicyKindCliName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kEquipartition:
      return "equi";
    case PolicyKind::kDynamic:
      return "dynamic";
    case PolicyKind::kDynAff:
      return "dyn-aff";
    case PolicyKind::kDynAffNoPri:
      return "dyn-aff-nopri";
    case PolicyKind::kDynAffDelay:
      return "dyn-aff-delay";
    case PolicyKind::kDynAffCluster:
      return "dyn-aff-cluster";
    case PolicyKind::kDynAffNode:
      return "dyn-aff-node";
    case PolicyKind::kTimeShare:
      return "timeshare";
    case PolicyKind::kTimeShareAff:
      return "timeshare-aff";
    case PolicyKind::kMqNoSteal:
      return "mq-nosteal";
    case PolicyKind::kMqSibling:
      return "mq-sibling";
    case PolicyKind::kMqCluster:
      return "mq-cluster";
    case PolicyKind::kMqNuma:
      return "mq-numa";
    case PolicyKind::kRtStaticAffinity:
      return "rt-static-affinity";
    case PolicyKind::kRtColorIso:
      return "rt-color-iso";
  }
  AFF_CHECK_MSG(false, "unknown policy kind");
}

bool PolicyKindFromName(const std::string& name, PolicyKind* kind) {
  for (PolicyKind candidate :
       {PolicyKind::kEquipartition, PolicyKind::kDynamic, PolicyKind::kDynAff,
        PolicyKind::kDynAffNoPri, PolicyKind::kDynAffDelay, PolicyKind::kDynAffCluster,
        PolicyKind::kDynAffNode, PolicyKind::kTimeShare, PolicyKind::kTimeShareAff,
        PolicyKind::kMqNoSteal, PolicyKind::kMqSibling, PolicyKind::kMqCluster,
        PolicyKind::kMqNuma, PolicyKind::kRtStaticAffinity, PolicyKind::kRtColorIso}) {
    if (name == PolicyKindCliName(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

std::vector<PolicyKind> DynamicFamily() {
  return {PolicyKind::kDynamic, PolicyKind::kDynAff, PolicyKind::kDynAffDelay};
}

std::vector<PolicyKind> MqPolicyFamily() {
  return {PolicyKind::kMqNoSteal, PolicyKind::kMqSibling, PolicyKind::kMqCluster,
          PolicyKind::kMqNuma};
}

bool IsMqPolicy(PolicyKind kind) {
  return kind == PolicyKind::kMqNoSteal || kind == PolicyKind::kMqSibling ||
         kind == PolicyKind::kMqCluster || kind == PolicyKind::kMqNuma;
}

std::string StealPolicyName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kMqNoSteal:
      return "nosteal";
    case PolicyKind::kMqSibling:
      return "sibling";
    case PolicyKind::kMqCluster:
      return "cluster";
    case PolicyKind::kMqNuma:
      return "numa";
    default:
      break;
  }
  AFF_CHECK_MSG(false, "not a multi-queue policy kind");
}

bool PolicyKindFromStealName(const std::string& name, PolicyKind* kind) {
  for (PolicyKind candidate : MqPolicyFamily()) {
    if (name == StealPolicyName(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

std::vector<PolicyKind> RtPolicyFamily() {
  return {PolicyKind::kRtStaticAffinity, PolicyKind::kRtColorIso};
}

bool IsRtPolicy(PolicyKind kind) {
  return kind == PolicyKind::kRtStaticAffinity || kind == PolicyKind::kRtColorIso;
}

}  // namespace affsched
