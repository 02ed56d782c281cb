// The dtop-trace record encodings: the trace header and the event records,
// as they appear inside the frames of a DTR2 file (trace/container.hpp).
//
// Header (all multi-byte integers are LEB128 varints; single bytes are raw):
//
//   version u8 (= 1)
//   root    varint
//   delta   u8
//   nodes   varint
//   slots   varint                  wire-id space incl. tombstones
//   per slot: u8 live? then         from varint, out_port u8,
//             (live only)           to varint, in_port u8
//   snake_delay / loop_delay / token_delay   varints
//
// Event record:
//
//   kind       u8 (TraceEventKind)
//   tick_delta varint               tick - previous event's tick
//   fields per kind (see trace_event.hpp), characters encoded as a
//   presence-bitmap varint followed by the bytes of each present lane
//
// The header embeds the full network, so a trace file is self-contained:
// replay needs nothing but the file. Ticks are non-decreasing by
// construction, which is what makes delta coding valid. A trace may end
// without a kRunEnd record: that is the on-disk shape of a run that died
// mid-tick (protocol violation), so a record boundary is a clean end.
// Truncation *inside* a record raises TraceError.
//
// Writers append to a std::string. The header reader walks a ByteReader
// (support/bytes.hpp); event records, millions per run, are decoded by one
// pointer cursor in trace_io.cpp. Files are read and written only by the
// container.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "graph/port_graph.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "trace/trace_event.hpp"

namespace dtop::trace {

// Thrown on malformed trace bytes: bad magic, unknown version, truncated
// record, out-of-range field.
class TraceError : public Error {
 public:
  explicit TraceError(std::string what) : Error(std::move(what)) {}
};

// The header's own version byte (the container has a separate one).
inline constexpr std::uint8_t kTraceVersion = 1;

struct TraceHeader {
  std::uint8_t version = kTraceVersion;
  NodeId root = 0;
  ProtocolConfig config;
  PortGraph graph{1, 1};

  bool operator==(const TraceHeader&) const = default;
};

// A fully materialized trace: everything `dtopctl trace` subcommands and the
// replay driver operate on.
struct RecordedTrace {
  TraceHeader header;
  std::vector<TraceEvent> events;

  bool operator==(const RecordedTrace&) const = default;
};

// Character encoder: the lane bitmap, then the bytes of each present lane
// (the same bytes a kWireSend record carries).
void write_character(std::string& out, const Character& c);

// The event-record codec. write_event_record appends one record; `last_tick`
// is the tick-delta baseline and is advanced to ev.tick. read_event_records
// decodes a run of records with the baseline reset to 0 (the raw payload of
// a DTR2 event block, which is what makes a block independently decodable)
// onto the end of `out`. The run may end at any record boundary; truncation
// inside a record, and every out-of-range field, throws TraceError (events
// decoded before the fault stay appended).
void write_event_record(std::string& out, const TraceEvent& ev,
                        Tick& last_tick);
void read_event_records(std::string_view records,
                        std::vector<TraceEvent>& out);

// Header codec: the raw payload of a DTR2 header frame.
void write_header(std::string& out, const TraceHeader& h);
TraceHeader read_header(ByteReader& in);

// The whole trace of a DTR2 file, materialized: TraceFile(is).read_all().
// Throws TraceError on malformed input, including the retired DTR1 format.
// Writing is trace/container.hpp's write_trace_dtr2.
RecordedTrace read_trace(std::istream& is);

}  // namespace dtop::trace
