// Snapshot exposition: the two wire forms of a metrics snapshot.
//
//   - Line-JSON fragments: three flat objects (counters, gauges,
//     histograms) for the dtopd `metrics` response. Flat by protocol law —
//     the dtopd parser rejects nested containers, so the response splices
//     these via JsonWriter::field_raw and a reader lifts them back out
//     with service::extract_object. Histogram values are
//     Histogram::encode() strings (digits and '|:,' only — no escaping
//     needed, but the emitter escapes anyway on principle).
//
//   - Prometheus text exposition: counters and gauges as single samples,
//     histograms in the classic cumulative `_bucket{le="..."}` form plus
//     `_sum`/`_count`, ready for a scrape endpoint or file artifact.
//
// Both renderings iterate the snapshot in its stored (name-sorted) order,
// so equal snapshots render byte-identically.
#pragma once

#include <string>

#include "obs/registry.hpp"

namespace dtop::obs {

// "{"a": 1, "b": 2}" — the snapshot's counters as one flat JSON object.
std::string counters_json(const Snapshot& s);
// Same for gauges (values are signed).
std::string gauges_json(const Snapshot& s);
// Histograms as {"name": "<Histogram::encode()>"} string fields.
std::string histograms_json(const Snapshot& s);

// The full snapshot in Prometheus text exposition format (version 0.0.4).
// `histogram_scale` divides histogram sample values on the way out (e.g.
// 1e6 for microsecond-recorded latencies exposed in seconds, the
// Prometheus convention); counters and gauges pass through unscaled.
std::string to_prometheus(const Snapshot& s, double histogram_scale = 1.0);

}  // namespace dtop::obs
