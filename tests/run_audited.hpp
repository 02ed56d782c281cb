// Drives an engine tick by tick with a global audit after every tick: the
// tests' way to check invariants the protocol must hold continuously, not
// just at termination. The stopping rule is SyncEngine::run's: stop once the
// root machine has terminated or the tick budget is spent.
#pragma once

#include "sim/engine.hpp"

namespace dtop {

template <class Engine, class Audit>
RunStatus run_audited(Engine& engine, Tick max_ticks, Audit&& audit) {
  while (engine.now() < max_ticks) {
    engine.step();
    audit(engine);
    if (engine.machine(engine.root()).terminated())
      return RunStatus::kTerminated;
  }
  return RunStatus::kTickBudget;
}

}  // namespace dtop
