#include "stats.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailPercentile(std::vector<double> v, int want_percent,
                    std::size_t min_beyond) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Integer arithmetic throughout: the nearest rank of percentile p is
  // k = ceil(p * n / 100), and k <= n - min_beyond must hold.
  int p = want_percent;
  if (n > min_beyond) {
    const auto allowed =
        static_cast<int>((100 * (n - min_beyond)) / n);  // floor
    p = std::min(p, allowed);
  } else {
    p = 50;
  }
  p = std::max(p, 50);
  const std::size_t pp = static_cast<std::size_t>(p);
  std::size_t k = (pp * n + 99) / 100;
  k = std::clamp<std::size_t>(k, 1, n);
  t.value = v[k - 1];
  t.percent = p;
  t.beyond = n - k;
  return t;
}

}  // namespace perfbench
