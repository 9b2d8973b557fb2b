// Canonical sweep-spec text and content-addressed cache keys.
//
// The result cache only works if equivalent requests collide: a client that
// submits "smoke;procs=8;seed=7" must hit the entries written for
// "smoke;seed=7;procs=8", and "speed=2.0" must mean the same spec as
// "speed=2". Raw spec strings guarantee neither (SweepSpec::name even
// records the override text verbatim for provenance), so hashing happens on
// a canonical rendering of the *parsed* SweepSpec: fixed field order,
// numbers normalized through the telemetry JSON formatter, topology via its
// round-trippable ToSpecString. Two spec strings that parse to the same grid
// always canonicalize — and therefore hash — identically.
//
// Two levels of key:
//
//   * The sweep key identifies a whole submitted grid (used as the stream id
//     in wire events). It covers everything that shapes the result document,
//     including policy order and the observability flag.
//   * The cell key identifies one simulation: the spec-addressable machine
//     and engine fields, the policy, the (mix, replication) coordinates, the
//     derived seed — plus the cache entry schema version and the git
//     revision of the simulator build, because a cell result is a function
//     of the binary that produced it. Grid-shape fields (which other
//     policies ran, replication bounds, observability) are deliberately
//     excluded so different grids share cells: resubmitting a widened sweep
//     reuses every cell it has in common with earlier runs.

#ifndef SRC_SERVE_SPEC_CANON_H_
#define SRC_SERVE_SPEC_CANON_H_

#include <cstdint>
#include <string>

#include "src/runner/sweep.h"

namespace affsched {

// Bump when the cache entry encoding changes incompatibly; part of every
// cell key, so stale-format entries become unreachable instead of corrupt.
// v2: JobStats gained the real-time fields (deadline_misses, tardiness_s,
// worst_reload_s), which every entry now round-trips.
inline constexpr int kCellEntrySchemaVersion = 2;

// FNV-1a over `text`, with a caller-chosen basis so two independent 64-bit
// digests can be concatenated into one 128-bit key.
uint64_t Fnv1a64(const std::string& text, uint64_t basis = 14695981039346656037ull);

// Lower-case hex, zero-padded to 16 digits.
std::string HashHex(uint64_t value);

// The canonical rendering of a parsed spec (deterministic field order,
// normalized numbers, name/provenance excluded). Equivalent specs — same
// grid, different override spelling — produce identical text.
std::string CanonicalSpecText(const SweepSpec& spec);

// 16-hex-digit digest of CanonicalSpecText.
std::string SweepKey(const SweepSpec& spec);

// The canonical rendering of one cell's identity (see file comment for what
// is and is not included). `git_rev` defaults to the built-in commit via
// RunManifest::GitSha(); tests inject fixed values.
std::string CanonicalCellText(const SweepSpec& spec, PolicyKind policy, int mix_number,
                              std::size_t replication, uint64_t seed,
                              const std::string& git_rev);

// 32-hex-digit content address for one cell (two independent FNV-1a digests
// of CanonicalCellText), used as the cache file name. Collision probability
// is negligible at any plausible cache size.
std::string CellKey(const SweepSpec& spec, PolicyKind policy, int mix_number,
                    std::size_t replication, uint64_t seed);
std::string CellKeyWithRev(const SweepSpec& spec, PolicyKind policy, int mix_number,
                           std::size_t replication, uint64_t seed, const std::string& git_rev);

}  // namespace affsched

#endif  // SRC_SERVE_SPEC_CANON_H_
