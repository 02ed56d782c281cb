#include "runner/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>

#include "core/gtd.hpp"
#include "core/verify.hpp"
#include "graph/analysis.hpp"
#include "graph/families.hpp"
#include "support/thread_pool.hpp"
#include "trace/container.hpp"
#include "trace/trace_io.hpp"

namespace dtop::runner {
namespace {

// The GtdOptions a job expands to. Every scenario — including the fault
// kinds — goes through the one shared path: budget scenarios cap the tick
// budget, injection scenarios become trace-surgery edits applied through
// the engine's injection hook inside run_gtd.
GtdOptions job_options(const JobSpec& job, const PortGraph& g) {
  GtdOptions opt;
  opt.protocol = job.config.protocol;
  opt.max_ticks = job.scenario.kind == FaultScenario::Kind::kBudget
                      ? job.scenario.at
                      : job.max_ticks;
  if (job.scenario.is_injection()) {
    opt.injections.push_back(make_injection(g, job.seed, job.scenario));
  }
  return opt;
}

// Re-executes a failed job with a recorder attached and writes the capture
// next to the campaign results. Jobs are deterministic, so the re-run
// reproduces the failure — including a mid-run protocol violation, whose
// partial trace is written without a terminal record.
void capture_failure_trace(const JobSpec& job, const PortGraph& g,
                           const std::string& trace_dir, JobResult& r,
                           Arena* arena) {
  trace::TraceRecorder rec;
  GtdOptions opt = job_options(job, g);
  opt.trace = &rec;
  if (arena) arena->reset();  // the failed run's engine is gone by now
  opt.arena = arena;
  try {
    (void)run_gtd(g, job.root, opt);
  } catch (const std::exception&) {
    // Expected for violation jobs; the recorder keeps the partial stream.
  }
  if (!rec.started()) return;
  const std::string path =
      trace_dir + "/job-" + std::to_string(job.index) + ".dtrace";
  try {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw Error("cannot open " + path);
    trace::write_trace_dtr2(out, rec.take());
    out.flush();
    if (!out.good()) throw Error("write to " + path + " failed");
  } catch (const Error& e) {
    r.detail += (r.detail.empty() ? "" : "; ");
    r.detail += std::string("trace capture failed: ") + e.what();
    return;
  }
  r.trace_file = path;
}

}  // namespace

const char* to_cstr(JobStatus s) {
  switch (s) {
    case JobStatus::kExact: return "exact";
    case JobStatus::kResidue: return "residue";
    case JobStatus::kMismatch: return "mismatch";
    case JobStatus::kBudget: return "budget";
    case JobStatus::kViolation: return "violation";
  }
  return "?";
}

std::size_t CampaignResult::failed() const {
  std::size_t n = 0;
  for (const JobResult& j : jobs)
    if (!j.ok()) ++n;
  return n;
}

JobResult run_job(const JobSpec& job, const std::string& trace_dir,
                  Arena* arena, const obs::EngineMetrics* metrics,
                  int metrics_shard) {
  JobResult r;
  r.spec = job;
  const auto t0 = std::chrono::steady_clock::now();
  bool graph_ready = false;
  PortGraph g{1, 1};
  try {
    FamilyInstance fi = make_family(job.family, job.nodes, job.seed);
    g = std::move(fi.graph);
    graph_ready = true;
    r.label = fi.label;
    r.n = g.num_nodes();
    r.d = diameter(g);
    r.e = g.num_wires();
    DTOP_REQUIRE(job.root < g.num_nodes(),
                 "root " + std::to_string(job.root) + " out of range for " +
                     fi.label);

    GtdOptions opt = job_options(job, g);
    if (arena) arena->reset();  // previous job's engine state is dead
    opt.arena = arena;
    opt.metrics = metrics;
    opt.metrics_shard = metrics_shard;
    const GtdResult res = run_gtd(g, job.root, opt);
    const bool injected =
        !job.scenario.is_injection() || res.injections_applied > 0;

    r.ticks = res.stats.ticks;
    r.messages = res.stats.messages;
    r.node_steps = res.stats.node_steps;
    if (res.status != RunStatus::kTerminated) {
      r.status = JobStatus::kBudget;
      r.detail = "tick budget exhausted after " +
                 std::to_string(res.stats.ticks) + " ticks";
    } else if (!res.map_complete) {
      r.status = JobStatus::kMismatch;
      r.detail = "transcript did not yield a complete map";
    } else {
      const VerifyResult v = verify_map(g, job.root, res.map);
      if (!v.ok) {
        r.status = JobStatus::kMismatch;
        r.detail = v.detail;
      } else if (!res.end_state_clean) {
        r.status = JobStatus::kResidue;
        r.detail = "end state not pristine (Lemma 4.2)";
      } else {
        r.status = JobStatus::kExact;
      }
    }
    if (!injected) {
      // The run ended before the injection tick: an "exact" here means the
      // fault never happened, not that the protocol survived it.
      if (!r.detail.empty()) r.detail += "; ";
      r.detail += "injection tick " + std::to_string(job.scenario.at) +
                  " never reached (run ended at tick " +
                  std::to_string(res.stats.ticks) + ")";
    }
  } catch (const std::exception& e) {
    r.status = JobStatus::kViolation;
    r.detail = e.what();
  }
  if (!r.ok() && !trace_dir.empty() && graph_ready) {
    capture_failure_trace(job, g, trace_dir, r, arena);
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const RunnerOptions& opt) {
  DTOP_REQUIRE(opt.threads >= 1, "runner threads must be >= 1");

  CampaignResult out;
  out.spec = spec;
  const std::vector<JobSpec> jobs = expand(spec);
  out.jobs.resize(jobs.size());

  const int threads = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(opt.threads), std::max<std::size_t>(jobs.size(), 1)));
  ThreadPool pool(threads);
  // One arena per worker, reused (reset) across every job the worker
  // claims: engine state for job k+1 lives in the blocks job k warmed up.
  std::vector<Arena> arenas;
  arenas.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) arenas.emplace_back();
  std::atomic<std::size_t> next{0};
  std::size_t done = 0;
  std::mutex mu;  // serializes progress reporting and the done counter

  pool.run([&](int t) {
    Arena* arena = &arenas[static_cast<std::size_t>(t)];
    for (;;) {
      if (opt.cancel && opt.cancel->load(std::memory_order_acquire)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      // Never throws: failures land in the result.
      out.jobs[i] = run_job(jobs[i], opt.trace_dir, arena, opt.metrics,
                            opt.metrics_shard_base + t);
      if (opt.progress) {
        std::lock_guard<std::mutex> lock(mu);
        opt.progress(out.jobs[i], ++done, jobs.size());
      }
    }
  });
  // fetch_add claims indices in order and a claimed job always completes,
  // so on cancellation the executed jobs are exactly a prefix of the
  // expansion — trim to it and flag the early stop.
  const std::size_t executed = std::min(next.load(), jobs.size());
  if (executed < jobs.size()) {
    out.jobs.resize(executed);
    out.interrupted = true;
  }
  return out;
}

}  // namespace dtop::runner
