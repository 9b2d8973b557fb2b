#include "src/runner/grid_spec.h"

#include "src/rt/deadline_mix.h"
#include "src/telemetry/json.h"
#include "src/topology/topology.h"

namespace affsched {

// Ranges the machine enforces (procs >= 1, speed and cache > 0, colors <= 64)
// are left to MachineConfig::Validate, which every sweep parser runs last.
bool ApplyGridKey(const std::string& key, const std::string& value, const std::string& what,
                  GridSpec* spec, std::string* error) {
  MachineConfig& machine = spec->machine;
  if (key == "policies") {
    return ReadSpecList(
        key, value,
        [](const std::string& name, PolicyKind* kind, std::string* item_error) {
          return PolicyKindFromName(name, kind) ||
                 SpecError(item_error, "unknown policy '" + name + "'");
        },
        &spec->policies, error);
  }
  if (key == "steal") {
    // Sugar for the multi-queue family: one mq-* kind per steal radius.
    return ReadSpecList(
        key, value,
        [](const std::string& name, PolicyKind* kind, std::string* item_error) {
          return PolicyKindFromStealName(name, kind) ||
                 SpecError(item_error, "unknown steal policy '" + name + "'");
        },
        &spec->policies, error);
  }
  if (key == "seed") {
    return ReadSpecNumber(key, value, &spec->root_seed, error);
  }
  if (key == "procs") {
    return ReadSpecNumber(key, value, &machine.num_processors, error);
  }
  if (key == "speed") {
    return ReadSpecNumber(key, value, &machine.processor_speed, error);
  }
  if (key == "cache") {
    return ReadSpecNumber(key, value, &machine.cache_size_factor, error);
  }
  if (key == "topology") {
    // Cell seeds do not depend on the topology, so hierarchical cells share
    // common random numbers with flat ones.
    return ParseTopologySpec(value, &machine.topology, error);
  }
  if (key == "colors") {
    // N >= 1 divides each cache into N page colors; 0 leaves it uncolored.
    return ReadSpecNumber(key, value, &machine.num_colors, error);
  }
  if (key == "rt") {
    return ReadSpecBool(key, value, &spec->rt, error);
  }
  if (key == "deadline-mix") {
    spec->deadline_mix = value;
    return IsDeadlineMix(value) ||
           SpecError(error, "unknown deadline mix '" + value +
                                "' (expected soft|hard|mixed|tight)");
  }
  return SpecError(error, "unknown " + what + " spec key '" + key + "'");
}

void AppendGridSpecJsonHead(const GridSpec& spec, std::ostream& o) {
  o << ",\"spec\":{\"name\":\"" << JsonEscape(spec.name) << "\""
    << ",\"root_seed\":" << spec.root_seed << ",\"machine\":{\"procs\":"
    << spec.machine.num_processors << ",\"speed\":" << JsonNumber(spec.machine.processor_speed)
    << ",\"cache\":" << JsonNumber(spec.machine.cache_size_factor);
  if (spec.machine.num_colors > 0) {
    o << ",\"colors\":" << spec.machine.num_colors;
  }
  if (!spec.machine.topology.IsFlat()) {
    o << ",\"topology\":\"" << JsonEscape(spec.machine.topology.ToSpecString()) << "\"";
  }
  o << "},\"policies\":[";
  for (size_t i = 0; i < spec.policies.size(); ++i) {
    o << (i > 0 ? "," : "") << "\"" << PolicyKindCliName(spec.policies[i]) << "\"";
  }
  o << "]";
}

void AppendGridSpecJsonTail(const GridSpec& spec, std::ostream& o) {
  if (spec.rt) {
    o << ",\"rt\":true,\"deadline_mix\":\"" << JsonEscape(spec.deadline_mix) << "\"";
  }
  o << "}";
}

}  // namespace affsched
