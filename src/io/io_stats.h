#ifndef DEX_IO_IO_STATS_H_
#define DEX_IO_IO_STATS_H_

#include <cstdint>

#include "common/stat_fields.h"

namespace dex {

/// \brief Counters accumulated by the simulated storage medium.
///
/// `sim_nanos` is the simulated I/O stall time; benchmarks add it to measured
/// CPU time to obtain the reported query time (see DESIGN.md §2 on the
/// cold/hot substitution).
struct IoStats {
  uint64_t disk_bytes_read = 0;    // bytes that missed the buffer pool
  uint64_t cached_bytes_read = 0;  // bytes served from the buffer pool
  uint64_t bytes_written = 0;
  uint64_t seeks = 0;              // contiguous miss runs
  uint64_t sim_nanos = 0;          // simulated elapsed I/O time
  uint64_t read_faults = 0;        // injected read failures (see FaultInjector)

  /// Every counter with its metric name (common/stat_fields.h).
  static constexpr auto Fields() {
    using S = IoStats;
    return std::tuple{StatField{"io.disk_bytes_read", &S::disk_bytes_read},
                      StatField{"io.cached_bytes_read", &S::cached_bytes_read},
                      StatField{"io.bytes_written", &S::bytes_written},
                      StatField{"io.seeks", &S::seeks},
                      StatField{"io.sim_nanos", &S::sim_nanos},
                      StatField{"io.read_faults", &S::read_faults}};
  }

  /// Component-wise difference (for snapshot/diff measurement windows).
  IoStats Since(const IoStats& earlier) const {
    IoStats d;
    ForEachStatField(Fields(), [&](const auto& f) {
      d.*f.member = this->*f.member - earlier.*f.member;
    });
    return d;
  }
};

}  // namespace dex

#endif  // DEX_IO_IO_STATS_H_
