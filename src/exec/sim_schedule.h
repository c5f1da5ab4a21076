#ifndef DEX_EXEC_SIM_SCHEDULE_H_
#define DEX_EXEC_SIM_SCHEDULE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dex {

/// \brief Deterministic aggregate of a wave of per-task simulated stall
/// times (the buckets `SimDisk::TaskTimeScope` filled).
struct SimSchedule {
  uint64_t serial_sum = 0;  // what the wave would cost end to end on 1 lane
  uint64_t makespan = 0;    // longest lane under list scheduling (critical path)
};

/// \brief Greedy list scheduling of per-task simulated stall times onto
/// `lanes` worker lanes, in task order: each task lands on the currently
/// least-loaded lane. The result is a pure function of (task_nanos, lanes),
/// independent of how the OS interleaved the real worker threads — which is
/// what makes a parallel wave's simulated time reproducible. Shared by the
/// stage-2 admission windows and the stage-1 metadata scan.
inline SimSchedule ListScheduleSimTimes(const std::vector<uint64_t>& task_nanos,
                                        size_t lanes) {
  std::vector<uint64_t> lane(std::max<size_t>(1, lanes), 0);
  SimSchedule out;
  for (const uint64_t nanos : task_nanos) {
    out.serial_sum += nanos;
    *std::min_element(lane.begin(), lane.end()) += nanos;
  }
  out.makespan = *std::max_element(lane.begin(), lane.end());
  return out;
}

}  // namespace dex

#endif  // DEX_EXEC_SIM_SCHEDULE_H_
