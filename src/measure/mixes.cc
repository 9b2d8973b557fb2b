#include "src/measure/mixes.h"

#include <sstream>

#include "src/common/check.h"

namespace affsched {

std::string WorkloadMix::Label() const {
  std::ostringstream out;
  out << "#" << number << " (";
  bool first = true;
  auto emit = [&](size_t count, const char* name) {
    if (count == 0) {
      return;
    }
    if (!first) {
      out << " + ";
    }
    out << count << " " << name;
    first = false;
  };
  emit(mva, "MVA");
  emit(matrix, "MATRIX");
  emit(gravity, "GRAVITY");
  out << ")";
  return out.str();
}

std::vector<AppProfile> WorkloadMix::Expand(const std::vector<AppProfile>& apps) const {
  AFF_CHECK(apps.size() == 3);
  std::vector<AppProfile> jobs;
  for (size_t i = 0; i < mva; ++i) {
    jobs.push_back(apps[0]);
  }
  for (size_t i = 0; i < matrix; ++i) {
    jobs.push_back(apps[1]);
  }
  for (size_t i = 0; i < gravity; ++i) {
    jobs.push_back(apps[2]);
  }
  return jobs;
}

std::array<WorkloadMix, 6> PaperMixes() {
  return {{
      {.number = 1, .mva = 2, .matrix = 0, .gravity = 0},
      {.number = 2, .mva = 1, .matrix = 1, .gravity = 0},
      {.number = 3, .mva = 1, .matrix = 0, .gravity = 1},
      {.number = 4, .mva = 0, .matrix = 0, .gravity = 2},
      {.number = 5, .mva = 0, .matrix = 1, .gravity = 1},
      {.number = 6, .mva = 1, .matrix = 1, .gravity = 1},
  }};
}

}  // namespace affsched
