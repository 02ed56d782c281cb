#include "bench_common.hpp"

#include <cstdlib>
#include <iostream>
#include <thread>

#include "core/verify.hpp"
#include "support/error.hpp"

namespace dtop::bench {

ProtocolRun run_verified(const std::string& label, const PortGraph& g,
                         NodeId root, const GtdOptions& opt) {
  ProtocolRun run;
  run.label = label;
  run.n = g.num_nodes();
  run.d = diameter(g);
  run.e = g.num_wires();
  run.result = run_gtd(g, root, opt);
  DTOP_CHECK(run.result.status == RunStatus::kTerminated,
             "benchmark run did not terminate: " + label);
  const VerifyResult v = verify_map(g, root, run.result.map);
  DTOP_CHECK(v.ok, "benchmark run produced a wrong map (" + label +
                       "): " + v.detail);
  return run;
}

std::vector<runner::JobResult> run_family_sweep(
    const std::vector<std::string>& families, const std::vector<NodeId>& sizes,
    std::uint64_t seed) {
  runner::CampaignSpec spec;
  spec.families = families;
  spec.sizes = sizes;
  spec.seeds = {seed};

  runner::RunnerOptions opt;
  const unsigned hw = std::thread::hardware_concurrency();
  opt.threads = static_cast<int>(std::max(1u, hw));

  const runner::CampaignResult result = runner::run_campaign(spec, opt);

  std::vector<runner::JobResult> rows;
  std::string last_family;
  NodeId last_n = 0;
  for (const runner::JobResult& r : result.jobs) {
    DTOP_CHECK(r.ok(), "benchmark job failed (" + r.label + "): " + r.detail);
    if (r.spec.family == last_family && r.n == last_n) continue;
    last_family = r.spec.family;
    last_n = r.n;
    rows.push_back(r);
  }
  return rows;
}

bool quick_mode() {
  const char* quick = std::getenv("DTOP_BENCH_QUICK");
  return quick && *quick;
}

std::vector<NodeId> default_sizes() {
  if (quick_mode()) return {16, 32, 64};
  return {16, 32, 64, 96, 128, 192, 256};
}

void write_tables(const runner::BenchJson& json) {
  const char* dir = std::getenv("DTOP_BENCH_JSON_DIR");
  json.write(dir ? dir : "", quick_mode(), std::cout);
}

}  // namespace dtop::bench
