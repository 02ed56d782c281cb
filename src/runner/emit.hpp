// Structured campaign-result emitters, shared by `dtopctl sweep` and the
// bench binaries.
//
// Both formats are deterministic functions of the job results alone: wall
// clock fields are excluded unless `timing` is set, so a campaign emitted at
// --threads 1 and --threads 8 is byte-identical.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "runner/runner.hpp"

namespace dtop::runner {

struct EmitOptions {
  bool timing = false;  // include per-job and total wall_ms (non-deterministic)
};

// One JSON object: {"campaign": {...}, "jobs": [...], "summary": {...}}.
void write_json(std::ostream& os, const CampaignResult& result,
                const EmitOptions& opt = {});

// RFC-4180-style CSV with a header row; `detail` is quoted.
void write_csv(std::ostream& os, const CampaignResult& result,
               const EmitOptions& opt = {});

// The repo's one JSON string escaper: `"`, `\`, \n, \r and \t get their
// short escapes, other bytes below 0x20 become \u00xx (lowercase hex), and
// every other byte (0x7F and UTF-8 included) is copied verbatim.
// `json_escape_append` appends the escaped text to `out`, copying each run of
// plain bytes in one append.
void json_escape_append(std::string& out, std::string_view s);
std::string json_escape(std::string_view s);

}  // namespace dtop::runner
