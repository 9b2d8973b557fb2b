// Run manifests: a machine-readable record of one benchmark or simulation
// run — seed, configuration, build/git metadata and end-of-run metric
// totals — written as a single JSON object.
// CI benches archive these next to their output so any number in a report
// can be traced back to the exact build and parameters that produced it.

#ifndef SRC_TELEMETRY_MANIFEST_H_
#define SRC_TELEMETRY_MANIFEST_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/telemetry/metrics.h"

namespace affsched {

class RunManifest {
 public:
  // Pre-populates build metadata: git_sha, git_dirty, build_type, compiler.
  RunManifest();

  void SetString(const std::string& key, const std::string& value);
  void SetNumber(const std::string& key, double value);
  // Emits the exact decimal digits. Use for 64-bit seeds and counters:
  // SetNumber would round-trip them through double and corrupt anything
  // above 2^53.
  void SetUint(const std::string& key, uint64_t value);
  // Emits a JSON boolean (true/false).
  void SetBool(const std::string& key, bool value);
  // Attaches a pre-rendered JSON value (object/array) under `key`.
  void SetJson(const std::string& key, const std::string& json);

  // Records invocation provenance: "git_rev" (the built-from commit),
  // "hostname" (the executing machine), and "argv" (the exact command line,
  // as a JSON array). Pass main()'s arguments through unchanged.
  void SetProvenance(int argc, const char* const* argv);

  // Embeds the registry's totals as the "metrics" member.
  void AddMetrics(const MetricsRegistry& registry);

  // One JSON object, keys sorted.
  std::string ToJson() const;
  bool WriteFile(const std::string& path) const;

  // Commit this binary was built from ("unknown" outside a git checkout).
  static const char* GitSha();

 private:
  // Values stored pre-rendered as JSON text.
  std::map<std::string, std::string> members_;
};

}  // namespace affsched

#endif  // SRC_TELEMETRY_MANIFEST_H_
