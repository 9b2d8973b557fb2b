#include "src/serve/spec_canon.h"

#include <sstream>

#include "src/runner/cell_seed.h"
#include "src/telemetry/json.h"
#include "src/telemetry/manifest.h"

namespace affsched {

uint64_t Fnv1a64(const std::string& text, uint64_t basis) {
  uint64_t hash = basis;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string HashHex(uint64_t value) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

namespace {

// The machine and engine fields a sweep spec can address (the shared grid
// keys in src/runner/grid_spec.h, plus balance-interval). Everything else in
// MachineConfig/EngineOptions is a build-time default, covered for cells by
// the git revision in the key.
void AppendMachineCanon(const SweepSpec& spec, std::ostringstream& o) {
  o << "procs=" << spec.machine.num_processors
    << ";speed=" << JsonNumber(spec.machine.processor_speed)
    << ";cache=" << JsonNumber(spec.machine.cache_size_factor)
    << ";topology=" << (spec.machine.topology.IsFlat() ? std::string("flat")
                                                       : spec.machine.topology.ToSpecString())
    << ";balance-ns=" << spec.engine.balance_interval
    // Page colors and the deadline stamp both change every cell's simulated
    // stats, so they are part of both key levels.
    << ";colors=" << spec.machine.num_colors
    << ";rt=" << (spec.rt ? 1 : 0) << ";deadline-mix=" << (spec.rt ? spec.deadline_mix : "none");
}

}  // namespace

std::string CanonicalSpecText(const SweepSpec& spec) {
  std::ostringstream o;
  o << "sweep-v1;policies=";
  for (size_t i = 0; i < spec.policies.size(); ++i) {
    o << (i > 0 ? "," : "") << PolicyKindCliName(spec.policies[i]);
  }
  o << ";mixes=";
  for (size_t i = 0; i < spec.mixes.size(); ++i) {
    o << (i > 0 ? "," : "") << spec.mixes[i].number;
  }
  o << ";reps=" << spec.replication.min_replications << "-" << spec.replication.max_replications
    << ";precision=" << JsonNumber(spec.replication.relative_precision)
    << ";confidence=" << JsonNumber(kReplicationConfidence)
    << ";seed=" << SeedToDecimal(spec.root_seed) << ";";
  AppendMachineCanon(spec, o);
  o << ";observability=" << (spec.observability ? 1 : 0);
  return o.str();
}

std::string SweepKey(const SweepSpec& spec) {
  return HashHex(Fnv1a64(CanonicalSpecText(spec)));
}

std::string CanonicalCellText(const SweepSpec& spec, PolicyKind policy, int mix_number,
                              std::size_t replication, uint64_t seed,
                              const std::string& git_rev) {
  std::ostringstream o;
  o << "cell-v" << kCellEntrySchemaVersion << ";git=" << git_rev << ";";
  AppendMachineCanon(spec, o);
  o << ";policy=" << PolicyKindCliName(policy) << ";mix=" << mix_number
    << ";rep=" << replication << ";seed=" << SeedToDecimal(seed);
  return o.str();
}

std::string CellKeyWithRev(const SweepSpec& spec, PolicyKind policy, int mix_number,
                           std::size_t replication, uint64_t seed, const std::string& git_rev) {
  const std::string text = CanonicalCellText(spec, policy, mix_number, replication, seed, git_rev);
  // Two independent digests: the standard FNV-1a basis and a second basis
  // derived by hashing the text length, giving 128 key bits in total.
  const uint64_t lo = Fnv1a64(text);
  const uint64_t hi = Fnv1a64(text, 0x9e3779b97f4a7c15ull ^ (lo + text.size()));
  return HashHex(hi) + HashHex(lo);
}

std::string CellKey(const SweepSpec& spec, PolicyKind policy, int mix_number,
                    std::size_t replication, uint64_t seed) {
  return CellKeyWithRev(spec, policy, mix_number, replication, seed, RunManifest::GitSha());
}

}  // namespace affsched
