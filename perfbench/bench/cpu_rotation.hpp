// Rotates the benchmark's working threads over every CPU the process may
// use.
//
// On a shared host each CPU's speed drifts with what its neighbours run,
// and the scheduler keeps a busy thread on one CPU for a whole run, so
// run-to-run figures depend on which CPU a run happened to land on.
// Moving each working thread to the next CPU once per step (training) or
// per time slice (serving) makes every run sample all CPUs alike. Ranks
// of one step are placed on distinct CPUs whenever there are enough.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

class CpuRotation {
 public:
  // Captures the calling thread's allowed CPU set; construct it before
  // any pinning.
  CpuRotation();

  // Pins the calling thread to the slot-th allowed CPU (modulo their
  // count). A no-op when the set could not be read or has one CPU.
  void Pin(std::size_t slot) const;
  // Restores the captured set on the calling thread.
  void Unpin() const;

  [[nodiscard]] std::size_t size() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
};

}  // namespace perfbench
