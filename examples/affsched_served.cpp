// affsched_served: the resident sweep daemon (sweep-as-a-service).
//
// Listens on a Unix-domain socket for line-delimited JSON requests (see
// src/serve/wire.h), plans each submitted sweep spec into cells, answers from
// the content-addressed result cache, simulates only the misses on an
// in-process worker pool, and streams per-cell events plus the final
// document — byte-identical to `simctl --sweep` — back to the client.
// Completed cells checkpoint to the cache as they finish, so killing the
// daemon mid-sweep loses only in-flight cells; the next submission of the
// same spec resumes from the survivors.
//
//   affsched_served --socket /tmp/aff.sock --cache-dir /tmp/aff-cache --jobs 4 &
//   python3 tools/affsched_client.py --socket /tmp/aff.sock submit "smoke" --out r.json

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include <sys/socket.h>
#include <unistd.h>

#include "src/common/flags.h"
#include "src/runner/heartbeat.h"
#include "src/runner/sweep.h"
#include "src/serve/service.h"
#include "src/serve/wire.h"
#include "src/telemetry/manifest.h"

namespace {

using namespace affsched;

// One heartbeat "cache" line: the service stats snapshot, flattened so the
// stream stays one-record-per-line greppable.
void EmitServiceHeartbeat(HeartbeatWriter* heartbeat, SweepService* service) {
  if (heartbeat == nullptr || !heartbeat->ok()) {
    return;
  }
  const ResultCacheStats cache = service->cache()->stats();
  const ServiceCounters& counters = service->counters();
  std::string members =
      "\"hits\":" + std::to_string(cache.hits) + ",\"misses\":" + std::to_string(cache.misses) +
      ",\"corrupt\":" + std::to_string(cache.corrupt) +
      ",\"stores\":" + std::to_string(cache.stores) +
      ",\"evictions\":" + std::to_string(cache.evictions) +
      ",\"entries\":" + std::to_string(service->cache()->EntryCount()) +
      ",\"bytes\":" + std::to_string(service->cache()->TotalBytes()) +
      ",\"submits\":" + std::to_string(counters.submits.load()) +
      ",\"cells_executed\":" + std::to_string(counters.cells_executed.load());
  heartbeat->Custom("cache", members);
}

// Serves one connection; returns false when the client asked for shutdown.
bool ServeConnection(int fd, SweepService* service, HeartbeatWriter* heartbeat) {
  LineChannel channel(fd);
  std::string line;
  while (channel.ReadLine(&line)) {
    if (line.empty()) {
      continue;
    }
    WireRequest request;
    std::string error;
    if (!ParseWireRequest(line, &request, &error)) {
      channel.WriteLine(WireErrorEvent(error));
      continue;
    }
    if (request.op == "ping") {
      channel.WriteLine("{\"event\":\"pong\",\"git_rev\":\"" +
                        std::string(RunManifest::GitSha()) + "\"}");
    } else if (request.op == "stats") {
      channel.WriteLine(service->StatsJson());
    } else if (request.op == "shutdown") {
      channel.WriteLine("{\"event\":\"bye\"}");
      return false;
    } else if (request.op == "submit") {
      SweepSpec spec;
      if (!ParseSweepSpec(request.spec, &spec, &error)) {
        channel.WriteLine(WireErrorEvent("bad spec: " + error));
        continue;
      }
      // Client hangups surface as WriteLine failures; the sweep still runs
      // to completion so its cells land in the cache for the retry.
      service->Submit(
          spec, [&](const std::string& event) { channel.WriteLine(event); }, nullptr, &error);
      EmitServiceHeartbeat(heartbeat, service);
    } else {
      channel.WriteLine(WireErrorEvent("unknown op: " + request.op));
    }
  }
  if (channel.overlong()) {
    channel.WriteLine(WireErrorEvent("request line longer than " +
                                     std::to_string(kMaxLineBytes) + " bytes"));
  }
  return true;
}

// Validates the flags, then accepts connections until a client asks for
// shutdown or --max-requests connections have been served.
int Serve(const FlagSet& flags) {
  const std::string socket_path = flags.GetString("socket");
  const std::string cache_dir = flags.GetString("cache-dir");
  const int64_t max_requests = flags.GetInt("max-requests");
  const char* problem = nullptr;
  if (socket_path.empty()) {
    problem = "--socket is required";
  } else if (cache_dir.empty()) {
    problem = "--cache-dir is required";
  } else if (flags.GetInt("max-cache-bytes") < 0) {
    problem = "--max-cache-bytes must be >= 0";
  } else if (flags.GetInt("jobs") < 0) {
    problem = "--jobs must be >= 0";
  } else if (flags.GetDouble("cell-delay-ms") < 0.0) {
    problem = "--cell-delay-ms must be >= 0";
  }
  if (problem != nullptr) {
    std::fprintf(stderr, "affsched_served: %s\n", problem);
    return 2;
  }

  SweepServiceOptions options;
  options.cache_dir = cache_dir;
  options.max_cache_bytes = static_cast<uint64_t>(flags.GetInt("max-cache-bytes"));
  options.jobs = static_cast<size_t>(flags.GetInt("jobs"));
  options.cell_delay_s = flags.GetDouble("cell-delay-ms") / 1000.0;
  SweepService service(options);
  if (!service.ok()) {
    std::fprintf(stderr, "affsched_served: %s\n", service.error().c_str());
    return 1;
  }

  std::unique_ptr<HeartbeatWriter> heartbeat;
  if (!flags.GetString("heartbeat").empty()) {
    heartbeat = std::make_unique<HeartbeatWriter>(flags.GetString("heartbeat"));
    service.set_round_stats(
        [&](const SweepRoundStats& stats) { heartbeat->OnRound(stats); });
  }

  std::string error;
  const int listen_fd = ListenUnix(socket_path, &error);
  if (listen_fd < 0) {
    std::fprintf(stderr, "affsched_served: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "affsched_served: listening on %s (cache %s, git %s)\n",
               socket_path.c_str(), cache_dir.c_str(), service.git_rev().c_str());

  int64_t served = 0;
  bool keep_running = true;
  while (keep_running) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      std::fprintf(stderr, "affsched_served: accept: %s\n", std::strerror(errno));
      break;
    }
    keep_running = ServeConnection(fd, &service, heartbeat.get());
    ++served;
    if (max_requests >= 0 && served >= max_requests) {
      keep_running = false;
    }
  }
  EmitServiceHeartbeat(heartbeat.get(), &service);
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A client that disconnects mid-stream must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  FlagSet flags(
      "affsched_served: resident sweep daemon. Serves sweep specs over a Unix\n"
      "socket from a content-addressed result cache (see src/serve/wire.h).\n"
      "usage: affsched_served --socket PATH --cache-dir DIR [flags]");
  flags.AddString("socket", "", "Unix socket to listen on (required)");
  flags.AddString("cache-dir", "", "content-addressed result cache directory (required)");
  flags.AddInt("max-cache-bytes", 0,
               "evict least-recently-used entries above this budget (0 = unbounded)");
  flags.AddInt("jobs", 0, "simulation threads (0 = hardware concurrency)");
  flags.AddDouble("cell-delay-ms", 0.0, "sleep before each simulated cell (fault injection)");
  flags.AddInt("max-requests", -1, "exit after serving N connections (-1 = unlimited)");
  flags.AddString("heartbeat", "", "append JSONL service heartbeat lines here (- = stderr)");
  if (!flags.Parse(argc, argv)) {
    if (flags.help_requested()) {
      std::printf("%s", flags.Help().c_str());
      return 0;
    }
    std::fprintf(stderr, "affsched_served: %s\n", flags.error().c_str());
    return 2;
  }
  return Serve(flags);
}
