#include "cpu_rotation.hpp"

#include <sched.h>

namespace perfbench {

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

void CpuRotation::Pin(std::size_t slot) const {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[slot % cpus_.size()], &set);
  // Best effort: a refused pin leaves the scheduler's placement.
  (void)sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::Unpin() const {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace perfbench
