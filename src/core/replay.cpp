// Trace replay: re-execute a recorded run and hard-fail on the first
// divergence from the recorded event stream.
//
// The trace is both the script of the run's external inputs (schedules and
// injections, re-applied at their recorded ticks) and the oracle for its
// outputs (every other event the re-execution must reproduce). Because the
// engine is deterministic, the produced stream either matches the recording
// event-for-event or the first mismatch localizes the problem to a tick.
//
// Events are compared as they are produced: after each tick (and after each
// re-applied external event) the live recorder's new events are checked
// against the recording and then dropped, so beyond the recording itself
// replay holds one tick's events, never a second copy of the run.
#include "core/gtd.hpp"

namespace dtop {

ReplayResult replay_gtd(const trace::RecordedTrace& rec, int num_threads,
                        Arena* arena) {
  DTOP_REQUIRE(num_threads >= 1, "num_threads >= 1");
  ReplayResult rr;

  const trace::TraceHeader& h = rec.header;
  h.graph.validate();
  DTOP_REQUIRE(h.root < h.graph.num_nodes(), "replay: root out of range");

  // One pass over the recording collects its external events, indexed by
  // their position in the stream: they are re-applied (in recorded order)
  // when the clock reads their tick, and the sink hooks then re-emit them,
  // so they participate in the comparison like any other event. The same
  // pass finds span events: a trace that contains them was recorded with
  // the observer facet attached, and the replay must mirror that, or every
  // span event would read as a divergence. Observers require a
  // single-threaded engine.
  std::vector<std::size_t> externals;
  bool has_spans = false;
  for (std::size_t i = 0; i < rec.events.size(); ++i) {
    switch (rec.events[i].kind) {
      case trace::TraceEventKind::kSchedule:
      case trace::TraceEventKind::kInject:
        externals.push_back(i);
        break;
      case trace::TraceEventKind::kRcaStart:
      case trace::TraceEventKind::kRcaPhase:
      case trace::TraceEventKind::kRcaComplete:
      case trace::TraceEventKind::kBcaStart:
      case trace::TraceEventKind::kBcaComplete:
      case trace::TraceEventKind::kGrowErased:
        has_spans = true;
        break;
      default:
        break;
    }
  }
  DTOP_REQUIRE(!has_spans || num_threads == 1,
               "replay: this trace contains span events (recorded with "
               "--spans) and must be replayed with 1 thread");

  trace::TraceRecorder live;
  GtdMachine::Config cfg;
  cfg.protocol = h.config;
  cfg.transcript = &rr.transcript;
  if (has_spans) cfg.observer = &live;

  GtdEngine engine(h.graph, h.root, cfg, num_threads, arena);
  live.begin(h.graph, h.root, h.config);
  engine.set_trace_sink(&live);
  rr.transcript.set_tap(&live);
  std::size_t next_ext = 0;

  const Tick end_tick = rec.events.empty() ? 0 : rec.events.back().tick;
  // A recorded violation run stops mid-tick, possibly a few quiet ticks
  // after its last event; allow some slack so the re-execution reaches
  // (and reproduces) the fatal step.
  const bool has_end = !rec.events.empty() &&
                       rec.events.back().kind == trace::TraceEventKind::kRunEnd;
  const Tick budget = has_end ? end_tick : end_tick + 8;

  // Compares the events produced since the last call against the
  // recording, then drops them from the live recorder; returns false (and
  // fills rr) on the first mismatch. `checked` counts the events compared
  // so far: it is the global index into rec.events of the next one.
  std::size_t checked = 0;
  const auto in_sync = [&]() {
    for (const trace::TraceEvent& got : live.events()) {
      if (checked >= rec.events.size()) {
        rr.diverged = true;
        rr.event_index = checked;
        rr.tick = got.tick;
        rr.detail = "replay produced an event past the end of the recording: " +
                    to_string(got);
        return false;
      }
      if (!(got == rec.events[checked])) {
        rr.diverged = true;
        rr.event_index = checked;
        rr.tick = rec.events[checked].tick;
        rr.detail = "first divergence at event " + std::to_string(checked) +
                    " (tick " + std::to_string(rr.tick) + "): recorded " +
                    to_string(rec.events[checked]) + ", replay produced " +
                    to_string(got);
        return false;
      }
      ++checked;
    }
    live.clear_events();
    return true;
  };

  std::string violation;
  try {
    bool synced = true;
    while (synced && engine.now() < budget) {
      while (next_ext < externals.size() &&
             rec.events[externals[next_ext]].tick == engine.now()) {
        const trace::TraceEvent& ev = rec.events[externals[next_ext]];
        if (ev.kind == trace::TraceEventKind::kSchedule) {
          engine.schedule(ev.a);
        } else {
          engine.inject(ev.a, ev.payload);
        }
        ++next_ext;
        if (!(synced = in_sync())) break;
      }
      if (!synced) break;
      engine.step();
      synced = in_sync();
    }
    if (synced && has_end) {
      const RunStatus status = engine.machine(h.root).terminated()
                                   ? RunStatus::kTerminated
                                   : RunStatus::kTickBudget;
      live.finish(engine.now(), status);
      synced = in_sync();
    }
  } catch (const Error& e) {
    // A protocol violation during replay is legitimate iff the recording is
    // itself a violation trace and everything up to the crash matched.
    violation = e.what();
  }

  // Events emitted during a fatal tick (e.g. the root's transcript entries
  // pushed before another node's step threw) were produced but not yet
  // compared when the exception unwound; re-sync so a faithful reproduction
  // of a violation trace is not misread as "never produced".
  if (!rr.diverged) (void)in_sync();

  rr.stats = engine.stats();
  rr.transcript.set_tap(nullptr);

  if (!rr.diverged) {
    if (checked < rec.events.size()) {
      rr.diverged = true;
      rr.event_index = checked;
      rr.tick = rec.events[checked].tick;
      rr.detail = "recording continues past the replay: recorded " +
                  to_string(rec.events[checked]) + " was never produced" +
                  (violation.empty() ? "" : " (replay raised: " + violation +
                                                ")");
    } else if (!violation.empty() && has_end) {
      rr.detail = "replay raised a violation the recording does not contain: " +
                  violation;
    } else {
      rr.ok = true;
    }
  }
  return rr;
}

}  // namespace dtop
