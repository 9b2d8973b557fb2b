// perfbench_driver: the simulator benchmark's in-process half. run.py builds
// and drives it; each command prints one JSON object on stdout.
//
//   perfbench_driver run --workload W --seed N --seconds S --trace 0|1
//                        --golden-dir DIR --out-dir DIR [--probe-setup]
//   perfbench_driver serve-verify --requests FILE [--jobs N]
//       FILE: one "spec<TAB>document path" line per served document
//   perfbench_driver serve-replay --specs FILE --cache-dir DIR --scratch DIR
//       FILE: one spec per line
//   perfbench_driver calib

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "driver/layers.h"
#include "driver/workloads.h"
#include "src/telemetry/json.h"

namespace {

using namespace perfbench;

int Usage(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  return 2;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage("usage: perfbench_driver run|serve-verify|serve-replay|calib [flags]");
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--probe-setup") {
      flags[arg] = "1";
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[arg] = argv[++i];
    } else {
      return Usage("bad argument: " + arg);
    }
  }
  const auto flag = [&flags](const std::string& name, const std::string& fallback = "") {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  };

  if (command == "calib") {
    std::printf("{\"calib_ms\":%s}\n", affsched::JsonNumber(CalibrationMs()).c_str());
    return 0;
  }
  if (command == "run") {
    RunOptions options;
    options.workload = flag("--workload");
    options.seed = std::strtoull(flag("--seed", "1").c_str(), nullptr, 10);
    options.seconds = std::strtod(flag("--seconds", "10").c_str(), nullptr);
    options.trace = flag("--trace", "0") == "1";
    options.probe_setup = flag("--probe-setup") == "1";
    options.golden_dir = flag("--golden-dir", "tests/golden");
    options.out_dir = flag("--out-dir", ".");
    std::string report;
    std::string error;
    if (!RunWorkload(options, &report, &error)) {
      return Usage(error);
    }
    std::printf("%s\n", report.c_str());
    return 0;
  }
  if (command == "serve-verify") {
    std::vector<std::pair<std::string, std::string>> requests;
    for (const std::string& line : ReadLines(flag("--requests"))) {
      const size_t tab = line.find('\t');
      if (tab == std::string::npos) {
        return Usage("bad request line: " + line);
      }
      requests.emplace_back(line.substr(0, tab), line.substr(tab + 1));
    }
    const size_t jobs = std::strtoul(flag("--jobs", "2").c_str(), nullptr, 10);
    std::printf("%s\n", VerifyServeDocuments(requests, jobs).c_str());
    return 0;
  }
  if (command == "serve-replay") {
    std::printf("%s\n", ReplayServeLayers(ReadLines(flag("--specs")), flag("--cache-dir"),
                                          flag("--scratch"))
                            .c_str());
    return 0;
  }
  return Usage("unknown command: " + command);
}
