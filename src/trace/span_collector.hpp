// Derives per-RCA / per-BCA spans (and growing-state erasures) from a trace
// event stream. Doubles as a serialization audit: the GTD protocol
// guarantees at most one RCA and one BCA in flight at any time, so
// overlapping spans are a hard error.
//
// This is the single home of the span bookkeeping, live and offline. Attached
// as a run's ProtoObserver (GtdOptions::observer) it turns each callback into
// the matching trace event; offline consumers of recorded traces (`dtopctl
// trace inspect`) stream the recorded events through consume() instead. Both
// paths run the same code, so a span computed after the fact from a trace
// file is bit-for-bit the span measured live.
#pragma once

#include <vector>

#include "proto/observer.hpp"
#include "support/error.hpp"
#include "trace/trace_event.hpp"

namespace dtop::trace {

class SpanCollector : public ProtoObserver {
 public:
  struct Span {
    NodeId node = kNoNode;
    Tick start = 0, end = 0;
    bool forward = false;
    // False for a span still in flight when the stream ended (a violation
    // or budget-cut trace): its end/duration are meaningless and consumers
    // must not fold it into duration statistics.
    bool closed = false;

    Tick duration() const { return end - start; }
    bool operator==(const Span&) const = default;
  };

  struct Erasure {
    NodeId node;
    Tick tick;
    bool bca_lane;
    bool operator==(const Erasure&) const = default;
  };

  // Consumes one event; kinds without span semantics are ignored, so a full
  // mixed trace can be streamed through unfiltered.
  void consume(const TraceEvent& ev) {
    switch (ev.kind) {
      case TraceEventKind::kRcaStart:
        DTOP_CHECK(!rca_open_, "overlapping RCAs observed");
        rca_open_ = true;
        rca_.push_back(Span{ev.a, ev.tick, 0, ev.b != 0});
        break;
      case TraceEventKind::kRcaComplete:
        DTOP_CHECK(rca_open_ && !rca_.empty() && rca_.back().node == ev.a,
                   "RCA completion without a start");
        rca_open_ = false;
        rca_.back().end = ev.tick;
        rca_.back().closed = true;
        break;
      case TraceEventKind::kBcaStart:
        DTOP_CHECK(!bca_open_, "overlapping BCAs observed");
        bca_open_ = true;
        bca_.push_back(Span{ev.a, ev.tick, 0, false});
        break;
      case TraceEventKind::kBcaComplete:
        DTOP_CHECK(bca_open_ && !bca_.empty() && bca_.back().node == ev.a,
                   "BCA completion without a start");
        bca_open_ = false;
        bca_.back().end = ev.tick;
        bca_.back().closed = true;
        break;
      case TraceEventKind::kGrowErased:
        erasures_.push_back(Erasure{ev.a, ev.tick, ev.b != 0});
        break;
      default:
        break;
    }
  }

  // ProtoObserver: the live path, one trace event per callback.
  void on_rca_start(NodeId node, Tick now, bool forward) override {
    consume(event(TraceEventKind::kRcaStart, node, now, forward ? 1 : 0));
  }
  void on_rca_complete(NodeId node, Tick now) override {
    consume(event(TraceEventKind::kRcaComplete, node, now));
  }
  void on_bca_start(NodeId node, Tick now) override {
    consume(event(TraceEventKind::kBcaStart, node, now));
  }
  void on_bca_complete(NodeId node, Tick now) override {
    consume(event(TraceEventKind::kBcaComplete, node, now));
  }
  void on_grow_erased(NodeId node, Tick now, bool bca_lane) override {
    consume(event(TraceEventKind::kGrowErased, node, now, bca_lane ? 1 : 0));
  }

  const std::vector<Span>& rca() const { return rca_; }
  const std::vector<Span>& bca() const { return bca_; }
  const std::vector<Erasure>& erasures() const { return erasures_; }

 private:
  static TraceEvent event(TraceEventKind kind, NodeId node, Tick now,
                          std::uint8_t b = 0) {
    TraceEvent ev;
    ev.kind = kind;
    ev.tick = now;
    ev.a = node;
    ev.b = b;
    return ev;
  }

  std::vector<Span> rca_, bca_;
  std::vector<Erasure> erasures_;
  bool rca_open_ = false, bca_open_ = false;
};

// Streams every event of a recorded trace through a fresh collector.
inline SpanCollector collect_spans(const std::vector<TraceEvent>& events) {
  SpanCollector c;
  for (const TraceEvent& ev : events) c.consume(ev);
  return c;
}

}  // namespace dtop::trace
