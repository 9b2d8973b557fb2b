// SweepService: the serving layer over the batch sweep runner.
//
// A service owns a content-addressed ResultCache and answers sweep
// submissions through three seams the runner exposes:
//
//   probe  — before a round executes, every cell is looked up in the cache;
//            hits skip simulation entirely.
//   store  — every freshly simulated cell persists to the cache the moment
//            its worker thread finishes it, so a killed process checkpoints
//            at cell granularity for free.
//   stream — as cells fold (deterministic order), a wire event is emitted,
//            giving clients incremental results long before the document.
//
// Misses run on the runner's in-process WorkerPool. The final document is
// built by the unmodified SweepRunner fold, so a submission's JSON is
// byte-identical to `simctl --sweep` on the same spec — whether its cells
// came from simulation, the cache or a resumed half-finished run, in any
// mixture.

#ifndef SRC_SERVE_SERVICE_H_
#define SRC_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/runner/heartbeat.h"
#include "src/runner/runner.h"
#include "src/serve/result_cache.h"

namespace affsched {

struct SweepServiceOptions {
  std::string cache_dir;
  uint64_t max_cache_bytes = 0;  // 0 = unbounded
  size_t jobs = 0;               // simulation threads (0 = hardware concurrency)
  // Fault-injection throttle: sleep before each simulation. Widens the
  // kill window for crash/resume tests; 0 in production.
  double cell_delay_s = 0.0;
  // Cache-key git revision override; empty = RunManifest::GitSha(). Tests
  // pin it so prebuilt fixtures stay addressable.
  std::string git_rev;
};

// Counters over the service lifetime (all submissions), exposed by the
// daemon's stats op and heartbeat lines.
struct ServiceCounters {
  std::atomic<uint64_t> submits{0};
  std::atomic<uint64_t> cells_planned{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cells_executed{0};  // simulated in this process
  std::atomic<uint64_t> inflight{0};        // simulations running right now
  std::atomic<uint64_t> errors{0};
};

// One submission's outcome. cells == hits + executed.
struct SubmitOutcome {
  std::string sweep_key;
  size_t cells = 0;
  size_t hits = 0;
  size_t executed = 0;
  std::string json;  // the schema-v1/v3 sweep document
};

class SweepService {
 public:
  explicit SweepService(const SweepServiceOptions& options);

  bool ok() const { return cache_->ok(); }
  const std::string& error() const { return cache_->error(); }

  // Runs one submission, streaming wire events through `emit` (called only
  // from this thread; pass {} to disable). Returns false on error with
  // `error` set (an "error" event is also emitted). Safe to call repeatedly;
  // a resident daemon calls it once per submit request.
  bool Submit(const SweepSpec& spec, const std::function<void(const std::string&)>& emit,
              SubmitOutcome* outcome, std::string* error);

  // {"event":"stats","git_rev":...,"cache":{...},"service":{...}} — the
  // stats op's response and the heartbeat "cache" line's payload.
  std::string StatsJson() const;

  // Optional live-progress hook, forwarded to the runner's round_stats seam
  // (bind to HeartbeatWriter::OnRound for a JSONL stream).
  void set_round_stats(std::function<void(const SweepRoundStats&)> hook);

  ResultCache* cache() { return cache_.get(); }
  const ServiceCounters& counters() const { return counters_; }
  const std::string& git_rev() const { return git_rev_; }

 private:
  SweepServiceOptions options_;
  std::string git_rev_;
  std::unique_ptr<ResultCache> cache_;
  std::function<void(const SweepRoundStats&)> round_stats_;
  ServiceCounters counters_;
};

}  // namespace affsched

#endif  // SRC_SERVE_SERVICE_H_
