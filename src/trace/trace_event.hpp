// The unified run-trace event model.
//
// The paper's synchronous model makes every run a deterministic sequence of
// tick-stamped events; this layer gives that sequence one concrete shape.
// A trace is a tick-ordered stream of TraceEvents covering everything the
// system can observe about a protocol execution:
//   - engine events: out-of-band schedules, node activations, wire sends,
//     fault injections (sim/trace_sink.hpp);
//   - the root's computational transcript (proto/transcript.hpp), mirrored
//     one-to-one as kRootEvent records;
//   - protocol instrumentation spans (proto/observer.hpp): RCA/BCA start,
//     phase transitions and completion, growing-state erasures;
//   - a terminal kRunEnd record carrying the run status, written only when
//     the run ended cleanly (a trace of a run that died mid-tick simply
//     stops, which is itself information).
//
// Within a tick, events appear in a fixed order: transcript/span events
// (emitted during node updates), then kNodeStep activations in active-set
// order, then kWireSend records in staging order, then any kInject records
// placed between this tick and the next. The engine emits its events
// sequentially after each tick's fork-join, so the stream is bit-identical
// at any thread count (span events are the exception: protocol observers
// are restricted to single-threaded engines, so record spans only when the
// trace never needs to be compared across thread counts).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proto/alphabet.hpp"
#include "proto/transcript.hpp"
#include "sim/machine.hpp"
#include "sim/metrics.hpp"

namespace dtop::trace {

enum class TraceEventKind : std::uint8_t {
  kSchedule = 0,     // a = node
  kNodeStep = 1,     // a = node
  kWireSend = 2,     // a = wire, payload = character
  kInject = 3,       // a = wire, b = overwrote (0/1), payload = character
  kRootEvent = 4,    // a = TranscriptEvent::Kind, b = out port, c = in port
  kRcaStart = 5,     // a = node, b = forward (0/1)
  kRcaPhase = 6,     // a = node, b = RcaPhase
  kRcaComplete = 7,  // a = node
  kBcaStart = 8,     // a = node
  kBcaComplete = 9,  // a = node
  kGrowErased = 10,  // a = node, b = bca_lane (0/1)
  kRunEnd = 11,      // a = RunStatus, b/c unused
};
inline constexpr int kNumTraceEventKinds = 12;

const char* to_cstr(TraceEventKind k);

struct TraceEvent {
  Tick tick = 0;
  std::uint32_t a = 0;   // node, wire, or sub-kind (see TraceEventKind)
  Character payload{};   // kWireSend / kInject only (blank otherwise)
  TraceEventKind kind = TraceEventKind::kSchedule;
  std::uint8_t b = 0;    // small auxiliary field
  std::uint8_t c = 0;

  bool operator==(const TraceEvent&) const = default;
};
// Layout: the 8-byte tick first, then a (4) and the 28-byte payload, then
// the three one-byte fields in what would otherwise be tail padding: 43
// bytes used, 48 with alignment. A one-byte field ahead of the tick would
// pad it out to 56. Recordings hold millions of these; the on-disk encoding
// is field by field (trace_io.hpp), so the layout is free to change.
static_assert(sizeof(TraceEvent) == 48);

// One-line rendering: "t=12 send wire=3 [IGH(0,*)]".
std::string to_string(const TraceEvent& ev);

// A trace-surgery edit: place `rogue` in flight on `wire` when the engine
// clock reads `at` (delivered at `at + 1`). This is the one shared path for
// every perturbation in the repo — the runner's fault scenarios, the fault
// tests, and recorded kInject events replayed from a trace all reduce to a
// list of these.
struct TraceInjection {
  Tick at = 0;
  WireId wire = kNoWire;
  Character rogue{};

  bool operator==(const TraceInjection&) const = default;
};

// Event constructors used by the recorder and the tests.
TraceEvent make_root_event(const TranscriptEvent& ev);
// Inverse of make_root_event; requires ev.kind == kRootEvent.
TranscriptEvent to_transcript_event(const TraceEvent& ev);

// Rebuilds the root's transcript from a trace's kRootEvent records — the
// Transcript is, by construction, a projection of the unified trace.
Transcript transcript_from_trace(const std::vector<TraceEvent>& events);

}  // namespace dtop::trace
