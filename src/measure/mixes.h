// The six workload mixes of Table 2.
//
//            #1  #2  #3  #4  #5  #6
//   MVA       2   1   1   0   0   1
//   MATRIX    0   1   0   0   1   1
//   GRAVITY   0   0   1   2   1   1

#ifndef SRC_MEASURE_MIXES_H_
#define SRC_MEASURE_MIXES_H_

#include <array>
#include <string>
#include <vector>

#include "src/workload/app_profile.h"

namespace affsched {

struct WorkloadMix {
  int number = 0;  // 1..6 as in the paper
  size_t mva = 0;
  size_t matrix = 0;
  size_t gravity = 0;

  size_t TotalJobs() const { return mva + matrix + gravity; }
  std::string Label() const;

  // Expands the mix into job profiles using the given application set
  // ({MVA, MATRIX, GRAVITY} order, as DefaultProfiles() returns).
  std::vector<AppProfile> Expand(const std::vector<AppProfile>& apps) const;
};

// All six mixes of Table 2, in order.
std::array<WorkloadMix, 6> PaperMixes();

}  // namespace affsched

#endif  // SRC_MEASURE_MIXES_H_
