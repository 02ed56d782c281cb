#include "trace/recorder.hpp"

namespace dtop::trace {

void TraceRecorder::begin(const PortGraph& g, NodeId root,
                          const ProtocolConfig& config) {
  DTOP_REQUIRE(!started_, "TraceRecorder::begin called twice");
  started_ = true;
  header_.root = root;
  header_.config = config;
  header_.graph = g;
}

void TraceRecorder::finish(Tick final_tick, RunStatus status) {
  DTOP_REQUIRE(started_ && !finished_, "TraceRecorder::finish out of order");
  TraceEvent& ev = append();
  ev.kind = TraceEventKind::kRunEnd;
  ev.tick = final_tick;
  ev.a = static_cast<std::uint32_t>(status);
  finished_ = true;
}

const TraceHeader& TraceRecorder::header() const {
  DTOP_REQUIRE(started_, "TraceRecorder: no header before begin()");
  return header_;
}

RecordedTrace TraceRecorder::take() {
  DTOP_REQUIRE(started_, "TraceRecorder: nothing recorded");
  RecordedTrace out;
  out.header = std::move(header_);
  out.events = std::move(events_);
  started_ = false;
  finished_ = false;
  header_ = TraceHeader{};
  events_.clear();
  return out;
}

TraceEvent& TraceRecorder::append() {
  DTOP_CHECK(started_ && !finished_,
             "trace event outside the begin()..finish() window");
  if (events_.size() == events_.capacity()) {
    // The growth ladder: 4 Ki events, then 1 Mi (48 MB), then doubling.
    // A buffer of 48 MB or more is always its own mapping, returned to the
    // system when freed, and its untouched pages cost nothing. Plain
    // doubling would pass through 6-25 MB buffers that glibc, once its
    // dynamic mmap threshold has risen, serves from the heap and keeps
    // resident after free, raising the process's high-water mark for every
    // later run.
    constexpr std::size_t kFirst = std::size_t{1} << 12;
    constexpr std::size_t kLarge = std::size_t{1} << 20;
    const std::size_t cap = events_.capacity();
    events_.reserve(cap < kFirst ? kFirst : cap < kLarge ? kLarge : 2 * cap);
  }
  return events_.emplace_back();
}

void TraceRecorder::on_schedule(Tick now, NodeId v) {
  TraceEvent& ev = append();
  ev.kind = TraceEventKind::kSchedule;
  ev.tick = now;
  ev.a = v;
}

void TraceRecorder::on_step(Tick tick, NodeId v) {
  TraceEvent& ev = append();
  ev.kind = TraceEventKind::kNodeStep;
  ev.tick = tick;
  ev.a = v;
}

void TraceRecorder::on_send(Tick tick, WireId w, const Character& m) {
  TraceEvent& ev = append();
  ev.kind = TraceEventKind::kWireSend;
  ev.tick = tick;
  ev.a = w;
  ev.payload = m;
}

void TraceRecorder::on_inject(Tick now, WireId w, const Character& m,
                              bool overwrote) {
  TraceEvent& ev = append();
  ev.kind = TraceEventKind::kInject;
  ev.tick = now;
  ev.a = w;
  ev.b = overwrote ? 1 : 0;
  ev.payload = m;
}

void TraceRecorder::on_transcript(const TranscriptEvent& tev) {
  append() = make_root_event(tev);
}

namespace {
void set_span(TraceEvent& ev, TraceEventKind kind, NodeId node, Tick now,
              std::uint8_t b = 0) {
  ev.kind = kind;
  ev.tick = now;
  ev.a = node;
  ev.b = b;
}
}  // namespace

void TraceRecorder::on_rca_start(NodeId node, Tick now, bool forward) {
  set_span(append(), TraceEventKind::kRcaStart, node, now, forward ? 1 : 0);
}

void TraceRecorder::on_rca_phase(NodeId node, Tick now, RcaPhase phase) {
  set_span(append(), TraceEventKind::kRcaPhase, node, now,
           static_cast<std::uint8_t>(phase));
}

void TraceRecorder::on_rca_complete(NodeId node, Tick now) {
  set_span(append(), TraceEventKind::kRcaComplete, node, now);
}

void TraceRecorder::on_bca_start(NodeId node, Tick now) {
  set_span(append(), TraceEventKind::kBcaStart, node, now);
}

void TraceRecorder::on_bca_complete(NodeId node, Tick now) {
  set_span(append(), TraceEventKind::kBcaComplete, node, now);
}

void TraceRecorder::on_grow_erased(NodeId node, Tick now, bool bca_lane) {
  set_span(append(), TraceEventKind::kGrowErased, node, now,
           bca_lane ? 1 : 0);
}

}  // namespace dtop::trace
