#include "core/gtd.hpp"

#include <algorithm>

namespace dtop {

Tick default_tick_budget(const PortGraph& g) {
  // Very generous: each of the <= 2E RCAs and E BCAs costs O(D) with a
  // small constant; we substitute N for D and pad. This is a watchdog, not
  // an estimate.
  const auto n = static_cast<Tick>(g.num_nodes());
  const auto e = static_cast<Tick>(g.num_wires());
  return 1024 + 64 * (3 * e + 2) * (n + 2);
}

bool end_state_clean(GtdEngine& engine) {
  const PortGraph& g = engine.graph();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const GtdMachine& m = engine.machine(v);
    if (!m.pristine()) return false;
    const DfsState& dfs = m.state().dfs;
    if (v == engine.root()) {
      if (dfs.phase != DfsPhase::kDone) return false;
    } else {
      if (dfs.phase != DfsPhase::kIdle) return false;
      if (!dfs.visited) return false;
    }
  }
  for (WireId w : g.wire_ids())
    if (engine.wire_pending(w)) return false;
  return true;
}

GtdResult run_gtd(const PortGraph& g, NodeId root, const GtdOptions& opt) {
  DTOP_REQUIRE(opt.num_threads >= 1, "num_threads >= 1");
  DTOP_REQUIRE(opt.observer == nullptr || opt.num_threads == 1,
               "protocol observers require a single-threaded engine");

  GtdResult result;

  GtdMachine::Config cfg;
  cfg.protocol = opt.protocol;
  cfg.transcript = &result.transcript;
  cfg.observer = opt.observer;

  EngineOptions eopt;
  eopt.num_threads = opt.num_threads;
  eopt.arena = opt.arena;
  eopt.parallel_grain = opt.parallel_grain;
  eopt.metrics = opt.metrics;
  eopt.metrics_shard = opt.metrics_shard;
  GtdEngine engine(g, root, cfg, eopt);
  if (opt.trace) {
    opt.trace->begin(g, root, opt.protocol);
    engine.set_trace_sink(opt.trace);
    result.transcript.set_tap(opt.trace);
  }
  engine.schedule(root);

  // Injections fire when the engine clock reads their tick (delivery at
  // tick + 1), interleaved with stepping; a stable sort keeps same-tick
  // injections in caller order.
  std::vector<trace::TraceInjection> injections = opt.injections;
  std::stable_sort(injections.begin(), injections.end(),
                   [](const trace::TraceInjection& x,
                      const trace::TraceInjection& y) { return x.at < y.at; });
  std::size_t next_inj = 0;

  const Tick budget = opt.max_ticks > 0 ? opt.max_ticks : default_tick_budget(g);
  while (engine.now() < budget) {
    while (next_inj < injections.size() &&
           injections[next_inj].at == engine.now()) {
      engine.inject(injections[next_inj].wire, injections[next_inj].rogue);
      ++next_inj;
      ++result.injections_applied;
    }
    engine.step();
    if (engine.machine(root).terminated()) {
      result.status = RunStatus::kTerminated;
      break;
    }
  }
  result.stats = engine.stats();
  result.stats.peak_rss_kb = peak_rss_kb();

  MapBuilder builder(g.delta());
  builder.consume_all(result.transcript);
  result.map_complete = builder.complete();
  result.map = builder.map();
  result.records = builder.records();

  if (opt.audit_end_state && result.status == RunStatus::kTerminated) {
    // The root terminates the moment its last out-port finishes; at that
    // tick the final BCA's BUNMARK is still one hop from its initiator (by
    // design — see DESIGN.md 3d). Give the O(1) residue a few pulses to
    // drain before auditing.
    for (int i = 0; i < 8; ++i) engine.step();
    result.end_state_clean = end_state_clean(engine);
  }

  // Seal the recording; the drain steps above are part of the trace, so a
  // replay reproduces them too. (On a protocol violation an exception has
  // already unwound past this point and the recorder keeps its partial
  // stream — that, plus never reaching finish(), is the trace of a crash.)
  if (opt.trace) {
    result.transcript.set_tap(nullptr);
    opt.trace->finish(engine.now(), result.status);
  }

  return result;
}

}  // namespace dtop
