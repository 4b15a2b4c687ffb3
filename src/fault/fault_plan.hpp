// Declarative, seeded fault schedules.
//
// A FaultPlan is a list of rules plus a seed, parsed from a compact spec
// string (EngineConfig::fault_spec; binaries that honour ZERO_FAULT copy
// it there through core::ApplyEnv):
//
//   spec     := [ "seed=" N ";" ] rule { ";" rule }
//   rule     := kind "@" rank [ ":" site ] [ "#" occurrence ]
//                                [ "%" probability ] [ "=" duration ]
//   kind     := "crash" | "hang" | "slow" | "drop" | "delay" | "dup"
//   site     := "step" | "collective" | "barrier" (point faults only)
//   duration := number [ "ns" | "us" | "ms" | "s" ]   (default ms)
//
// Examples:
//   crash@1:step#6          rank 1 dies the 6th time it reaches a step
//   hang@2:collective#3     rank 2 freezes at its 3rd collective
//   slow@0:step=20ms        rank 0 stalls 20 ms at every step (straggler)
//   drop@3%0.01             1% of rank 3's sends vanish
//   delay@0=2ms%0.5         half of rank 0's sends are delayed 2 ms
//   dup@1#10                rank 1's 10th send is deposited twice
//   seed=7;crash@0:step#3;drop@1%0.02
//
// Occurrence is an exact match (fires on the n-th trigger, not every
// trigger from n on), so after a recovery restart a consumed crash rule
// does not re-fire: the injector's counters persist across attempts and
// have moved past n. occurrence 0 (default) means every match, filtered
// only by probability. Probability draws come from a per-(rule, rank)
// splitmix64 stream seeded from the plan seed, so a schedule replays
// identically for a given seed regardless of thread interleaving.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace zero::fault {

enum class FaultKind : unsigned char {
  kCrash,  // point: throw InjectedFaultError
  kHang,   // point: block until the world aborts, then unwind
  kSlow,   // point: sleep `duration` (straggler)
  kDrop,   // send: message never deposited
  kDelay,  // send: sender stalls `duration` before depositing
  kDup,    // send: message deposited twice
};

[[nodiscard]] const char* ToString(FaultKind kind);
[[nodiscard]] bool IsPointFault(FaultKind kind);

struct FaultRule {
  FaultKind kind = FaultKind::kCrash;
  int rank = 0;                  // global rank the rule applies to
  std::string site;              // point faults: "" = any site
  std::uint64_t occurrence = 0;  // exact n-th trigger; 0 = every match
  double probability = 1.0;      // applied after the occurrence filter
  std::uint64_t duration_ns = 0; // slow / delay / hang-release budget

  [[nodiscard]] std::string ToSpec() const;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultRule> rules;

  [[nodiscard]] bool empty() const { return rules.empty(); }
  [[nodiscard]] std::string ToSpec() const;

  // Throws zero::ConfigError on malformed specs. An empty/whitespace
  // spec yields an empty plan.
  static FaultPlan Parse(const std::string& spec);
};

}  // namespace zero::fault
