// Run-level counters collected by the engine. `ticks` is the paper's
// complexity measure (global clock pulses between initiation and the root's
// terminal state); the rest quantify simulation effort and message traffic.
#pragma once

#include <cstdint>
#include <string>

#include "sim/machine.hpp"

namespace dtop {

struct EngineStats {
  Tick ticks = 0;                 // global clock pulses elapsed
  std::uint64_t messages = 0;     // non-blank characters transmitted
  std::uint64_t node_steps = 0;   // machine activations (scheduler work):
                                  // the sum over ticks of active nodes
  std::uint64_t max_active = 0;   // peak active nodes in one tick

  // Allocation observability (support/alloc_hook.hpp). `allocs` counts heap
  // allocations on the stepping thread since engine construction — the
  // regression-checkable form of the zero-allocation steady-state claim
  // (it plateaus once engine capacities warm up). `peak_rss_kb` is the
  // process peak RSS sampled at end of run; machine-dependent, report-only.
  std::uint64_t allocs = 0;
  std::uint64_t peak_rss_kb = 0;

  double avg_active() const;
  std::string summary() const;
};

enum class RunStatus {
  kTerminated,   // the root reached its terminal state
  kTickBudget,   // max_ticks elapsed first
};

}  // namespace dtop
