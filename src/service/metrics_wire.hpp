// Snapshot <-> wire glue for the dtopd `metrics` op.
//
// A metrics response is one line with three nested flat objects:
//
//   {"id": 1, "op": "metrics", "ok": true, "delta": false,
//    "counters": {"service_requests_total": 12, ...},
//    "gauges": {"service_queue_depth": 0, ...},
//    "histograms": {"service_determine_us": "<Histogram::encode()>", ...}}
//
// The nested objects are spliced in with JsonWriter::field_raw (the flat
// request parser rejects nesting) and lifted back out with extract_object.
// Two consumers share this translation: the Service rendering its registry,
// and dtopctl parsing a response for table/Prometheus rendering.
#pragma once

#include <string>

#include "obs/registry.hpp"
#include "service/json.hpp"

namespace dtop::service {

// Splices `s` into the response under nested "counters", "gauges" and
// "histograms" objects (flat: name -> u64, name -> i64, name -> encoded
// histogram string).
void write_snapshot_fields(JsonWriter& w, const obs::Snapshot& s);

// The inverse: lifts the three nested objects back out of a metrics
// response line. Sections absent from the line parse as empty. Throws
// (JsonError / Error) on malformed sections or histogram encodings.
obs::Snapshot parse_snapshot_response(const std::string& line);

}  // namespace dtop::service
