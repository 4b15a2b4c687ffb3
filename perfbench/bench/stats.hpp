// Order statistics for the benchmark's timing samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Mean of `v`; 0 for an empty vector.
[[nodiscard]] double Mean(const std::vector<double>& v);

// Median (mean of the two middle samples for an even count); 0 when empty.
[[nodiscard]] double Median(std::vector<double> v);

// A tail percentile that keeps at least `min_beyond` samples above it.
struct Tail {
  double value = 0.0;
  int percent = 0;         // the percentile actually reported
  std::size_t beyond = 0;  // samples ranked strictly above it
};

// The highest whole percentile at or below `want_percent` whose
// nearest-rank sample still has `min_beyond` samples ranked above it,
// never below the median. With fewer than 2 * min_beyond samples the
// median is returned and `beyond` tells how thin the tail is.
[[nodiscard]] Tail TailPercentile(std::vector<double> v, int want_percent = 95,
                                  std::size_t min_beyond = 10);

}  // namespace perfbench
