// TraceRecorder: the one object that turns a live run into a RecordedTrace,
// and the way to watch a run's wire traffic (`atlas --trace N` prints its
// kWireSend events, grouped by tick).
//
// It plugs into three of a run's four observation hooks at once (the fourth,
// obs::EngineMetrics, times the engine and records no events):
//   - engine events, as the engine's EngineTraceSink<Character>;
//   - the root's transcript, as a TranscriptSink tap;
//   - protocol spans, as a ProtoObserver (optional — observers require a
//     single-threaded engine, and span events make a trace thread-count
//     specific; attach this facet only for instrumentation traces).
//     trace::SpanCollector turns the recorded span events into the same
//     RCA/BCA spans it computes when attached live.
//
// run_gtd wires the first two up automatically when GtdOptions::trace is
// set; pass the recorder as GtdOptions::observer as well to add spans.
#pragma once

#include <vector>

#include "proto/observer.hpp"
#include "proto/transcript.hpp"
#include "sim/trace_sink.hpp"
#include "trace/trace_io.hpp"

namespace dtop::trace {

class TraceRecorder final : public EngineTraceSink<Character>,
                            public TranscriptSink,
                            public ProtoObserver {
 public:
  TraceRecorder() = default;

  // Captures the run's identity (network, root, protocol config) into the
  // trace header. Must be called exactly once, before any event arrives.
  void begin(const PortGraph& g, NodeId root, const ProtocolConfig& config);

  // Appends the terminal kRunEnd record. Call once, when the run ended
  // cleanly; a recorder abandoned mid-run (protocol violation) simply keeps
  // its partial event list.
  void finish(Tick final_tick, RunStatus status);

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  const TraceHeader& header() const;
  const std::vector<TraceEvent>& events() const { return events_; }
  // Drops the events captured so far (keeping the buffer's capacity) and
  // leaves the begin()..finish() window as it is. A consumer that reads
  // events() as they arrive — replay compares each tick's events, then
  // clears — holds one tick of them instead of the whole run.
  void clear_events() { events_.clear(); }

  // Moves the capture out as a self-contained trace.
  RecordedTrace take();

  // EngineTraceSink.
  void on_schedule(Tick now, NodeId v) override;
  void on_step(Tick tick, NodeId v) override;
  void on_send(Tick tick, WireId w, const Character& m) override;
  void on_inject(Tick now, WireId w, const Character& m,
                 bool overwrote) override;

  // TranscriptSink.
  void on_transcript(const TranscriptEvent& ev) override;

  // ProtoObserver (span facet).
  void on_rca_start(NodeId node, Tick now, bool forward) override;
  void on_rca_phase(NodeId node, Tick now, RcaPhase phase) override;
  void on_rca_complete(NodeId node, Tick now) override;
  void on_bca_start(NodeId node, Tick now) override;
  void on_bca_complete(NodeId node, Tick now) override;
  void on_grow_erased(NodeId node, Tick now, bool bca_lane) override;

 private:
  // A new blank event at the end of the capture; throws Error outside the
  // begin()..finish() window.
  TraceEvent& append();

  bool started_ = false;
  bool finished_ = false;
  TraceHeader header_;
  std::vector<TraceEvent> events_;
};

}  // namespace dtop::trace
