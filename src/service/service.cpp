#include "service/service.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/gtd.hpp"
#include "core/map_io.hpp"
#include "core/verify.hpp"
#include "graph/analysis.hpp"
#include "graph/canonical.hpp"
#include "graph/families.hpp"
#include "graph/graph_io.hpp"
#include "runner/runner.hpp"
#include "service/cache_store.hpp"
#include "service/metrics_wire.hpp"
#include "trace/container.hpp"
#include "trace/recorder.hpp"
#include "trace/trace_io.hpp"

namespace dtop::service {
namespace {

// A determine run that ended in anything but kExact. Carries the runner's
// status vocabulary so daemon responses and sweep rows speak one language.
class DetermineError : public Error {
 public:
  DetermineError(std::string status, std::string detail)
      : Error(std::move(detail)), status_(std::move(status)) {}
  const std::string& status() const { return status_; }

 private:
  std::string status_;
};

std::string hash_hex(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xF];
    h >>= 4;
  }
  return out;
}

// The success response of a determine. The worker path and the hits
// answered at submit both write it, so a hit has the same bytes either way.
std::string determine_response(const std::string& id, std::string_view outcome,
                               const CacheKey& key, const CachedMap& r,
                               bool include_map) {
  JsonWriter w;
  if (!id.empty()) w.field_raw("id", id);
  w.field("op", "determine")
      .field("ok", true)
      .field("status", "exact")
      .field("cache", outcome)
      .field("key", hash_hex(key.graph_hash))
      .field("config", key.config)
      .field("label", r.label)
      .field("n", static_cast<std::uint64_t>(r.n))
      .field("d", static_cast<std::uint64_t>(r.d))
      .field("e", static_cast<std::uint64_t>(r.e))
      .field("ticks", static_cast<std::int64_t>(r.ticks))
      .field("messages", r.messages)
      .field("node_steps", r.node_steps);
  if (include_map) w.field("map", r.map_text);
  return w.str();
}

}  // namespace

// Materializes the request's network: a named family instance or an inline
// dtop-graph v1 text in the "graph" field. The daemon's cache key is the
// rooted canonical form, which requires every processor reachable from the
// root; we demand full strong connectivity up front (the paper's model
// does too — every processor must also answer back to the root).
PortGraph request_graph(const JsonObject& req, std::string* label) {
  const bool inline_graph = req.has("graph");
  const bool family = req.has("family");
  if (inline_graph == family) {
    throw JsonError(
        "request needs exactly one network source: \"family\" or \"graph\"");
  }
  PortGraph g{1, 1};
  if (inline_graph) {
    g = graph_from_string(req.require_string("graph"));
    g.validate();
    *label = "graph";
  } else {
    const std::uint64_t nodes = req.get_u64("nodes", 16);
    if (nodes < 2 || nodes > 0xFFFFFFFFull) {
      throw Error("\"nodes\" value " + std::to_string(nodes) +
                  " out of range (need 2 <= nodes <= 2^32-1)");
    }
    FamilyInstance fi =
        make_family(req.require_string("family"), static_cast<NodeId>(nodes),
                    req.get_u64("seed", 1));
    g = std::move(fi.graph);
    *label = fi.label;
  }
  if (!is_strongly_connected(g)) {
    throw Error("network must be strongly connected");
  }
  return g;
}

NodeId request_root(const JsonObject& req, const PortGraph& g) {
  const std::uint64_t root = req.get_u64("root", 0);
  if (root >= g.num_nodes()) {
    throw Error("root " + std::to_string(root) + " out of range (network has " +
                std::to_string(g.num_nodes()) + " nodes)");
  }
  return static_cast<NodeId>(root);
}

namespace {

// One deterministic protocol execution; throws DetermineError on every
// non-exact outcome so only verified results ever reach the cache.
CachedMap execute_determine(const PortGraph& g, NodeId root,
                            const runner::EngineConfig& config, Tick max_ticks,
                            const std::string& label, Arena* arena,
                            const obs::EngineMetrics* metrics,
                            int metrics_shard) {
  GtdOptions gopt;
  gopt.protocol = config.protocol;
  gopt.max_ticks = max_ticks;
  if (arena) arena->reset();  // previous request's engine state is dead
  gopt.arena = arena;
  gopt.metrics = metrics;
  gopt.metrics_shard = metrics_shard;
  const GtdResult res = run_gtd(g, root, gopt);
  if (res.status != RunStatus::kTerminated) {
    throw DetermineError("budget", "tick budget exhausted after " +
                                       std::to_string(res.stats.ticks) +
                                       " ticks");
  }
  if (!res.map_complete) {
    throw DetermineError("mismatch", "transcript did not yield a complete map");
  }
  const VerifyResult v = verify_map(g, root, res.map);
  if (!v.ok) throw DetermineError("mismatch", v.detail);
  if (!res.end_state_clean) {
    throw DetermineError("residue", "end state not pristine (Lemma 4.2)");
  }
  CachedMap out;
  out.map_text = map_to_string(res.map);
  out.label = label;
  out.n = g.num_nodes();
  out.d = diameter(g);
  out.e = g.num_wires();
  out.ticks = res.stats.ticks;
  out.messages = res.stats.messages;
  out.node_steps = res.stats.node_steps;
  return out;
}

// Post-mortem hook: re-runs a failed determine with a recorder attached and
// writes the capture as req-<seq>.dtrace (the run is deterministic, so the
// re-run reproduces the failure exactly). Returns the path, or "" when
// nothing could be captured.
std::string capture_determine_trace(const PortGraph& g, NodeId root,
                                    const runner::EngineConfig& config,
                                    Tick max_ticks,
                                    const std::string& trace_dir,
                                    std::uint64_t ticket, Arena* arena) {
  trace::TraceRecorder rec;
  GtdOptions gopt;
  gopt.protocol = config.protocol;
  gopt.max_ticks = max_ticks;
  gopt.trace = &rec;
  if (arena) arena->reset();  // the failed run's engine is gone by now
  gopt.arena = arena;
  try {
    (void)run_gtd(g, root, gopt);
  } catch (const std::exception&) {
    // Expected for violation runs; the recorder keeps the partial stream.
  }
  if (!rec.started()) return "";
  const std::string path =
      trace_dir + "/req-" + std::to_string(ticket) + ".dtrace";
  try {
    std::ofstream out(path, std::ios::binary);
    if (!out) return "";
    trace::write_trace_dtr2(out, rec.take());
    out.flush();
    if (!out.good()) return "";
  } catch (const Error&) {
    return "";  // capture is best-effort; the determine already failed
  }
  return path;
}

std::vector<NodeId> parse_sizes(const std::string& text) {
  std::vector<NodeId> sizes;
  for (const std::uint64_t v : runner::parse_u64_list("sizes", text)) {
    if (v < 2 || v > 0xFFFFFFFFull) {
      throw Error("sweep size " + std::to_string(v) + " out of range");
    }
    sizes.push_back(static_cast<NodeId>(v));
  }
  return sizes;
}

}  // namespace

Service::Service(const ServiceOptions& opt)
    : opt_(opt),
      cache_(opt.cache_capacity),
      pool_(opt.workers) {
  DTOP_REQUIRE(opt.workers >= 1, "service workers must be >= 1");
  if (!opt_.cache_store.empty()) {
    std::ostream& warn = opt_.warn ? *opt_.warn : std::cerr;
    // Replay first, then open for append: the replay must not echo the
    // records it just read back into the file. put() respects capacity, so
    // an over-full store simply warms the most recent window the LRU keeps.
    warm_loaded_ = CacheStore::load(
        opt_.cache_store,
        [this](CacheKey key, CachedMap value) { cache_.put(key, value); },
        warn, &warm_bytes_);
    store_ = std::make_unique<CacheStore>(opt_.cache_store, warn);
  }
  arenas_.reserve(static_cast<std::size_t>(opt.workers));
  for (int w = 0; w < opt.workers; ++w) arenas_.emplace_back();
  // Register every instrument before the pump starts: handles are stable
  // for the registry's lifetime, so workers record lock-free thereafter.
  engine_metrics_ = obs::EngineMetrics::create(registry_);
  requests_total_ = registry_.counter("service_requests_total");
  rejected_ = registry_.counter("service_rejected_total");
  for (std::size_t i = 0; i < kServedOpCount; ++i) {
    op_latency_us_[i] = registry_.histogram(
        std::string("service_") + kStatsServedFields[i] + "_latency_us");
  }
  pump_ = std::thread([this] {
    pool_.run([this](int w) {
      while (auto job = queue_.pop()) {
        std::string resp = handle_line(*job, w);
        lookup_done(job->ticket);  // requests that failed before their lookup
        job->promise.set_value(std::move(resp));
      }
    });
  });
}

Service::~Service() { stop(); }

void Service::stop() {
  if (stopped_.exchange(true)) return;
  queue_.close();  // workers drain the backlog, then exit
  if (pump_.joinable()) pump_.join();
}

struct Service::Determine {
  CacheKey key;
  runner::EngineConfig config;
  Tick max_ticks = 0;
  bool include_map = true;
  // Set by build() only: a known identity skips generation entirely.
  std::optional<PortGraph> graph;
  std::string label;
  NodeId root = 0;

  void build(const JsonObject& req) {
    if (graph) return;
    graph = request_graph(req, &label);
    root = request_root(req, *graph);
  }
};

std::size_t Service::FamilyIdentityHash::operator()(
    const FamilyIdentity& k) const {
  std::size_t h = std::hash<std::string>{}(k.family);
  for (const std::uint64_t v : {k.nodes, k.seed, k.root}) {
    h ^= std::hash<std::uint64_t>{}(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
  }
  return h;
}

std::size_t Service::known_identities() const {
  std::lock_guard<std::mutex> lock(identity_mu_);
  return identities_.size();
}

std::uint64_t Service::submit(std::string line, std::uint64_t after) {
  const std::uint64_t ticket =
      next_ticket_.fetch_add(1, std::memory_order_relaxed);
  if (std::optional<std::string> hit = answer_hit(line, after)) {
    std::promise<std::string> ready;
    ready.set_value(std::move(*hit));
    std::lock_guard<std::mutex> lock(futures_mu_);
    futures_[ticket] = ready.get_future();
    return ticket;
  }
  Job job;
  job.ticket = ticket;
  job.after = after;
  job.line = std::move(line);
  {
    std::lock_guard<std::mutex> lock(lookup_mu_);
    lookups_ahead_.insert(ticket);
  }
  std::future<std::string> future = job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(futures_mu_);
    futures_[ticket] = std::move(future);
  }
  if (!queue_.push(std::move(job))) {
    // The queue closed between shutdown and this submit; answer directly so
    // the caller is never left waiting on an abandoned promise.
    lookup_done(ticket);
    std::lock_guard<std::mutex> lock(futures_mu_);
    std::promise<std::string> p;
    futures_[ticket] = p.get_future();
    p.set_value(JsonWriter{}
                    .field("ok", false)
                    .field("error", "service is shutting down")
                    .str());
  }
  return ticket;
}

std::string Service::wait(std::uint64_t ticket) {
  std::future<std::string> future;
  {
    std::lock_guard<std::mutex> lock(futures_mu_);
    const auto it = futures_.find(ticket);
    DTOP_REQUIRE(it != futures_.end(),
                 "unknown or already-waited ticket " + std::to_string(ticket));
    future = std::move(it->second);
    futures_.erase(it);
  }
  return future.get();
}

std::string Service::call(const std::string& line) { return wait(submit(line)); }

// A ticket no longer in futures_ was already waited on, so it completed.
bool Service::completed(std::uint64_t after) {
  if (after == 0) return true;
  std::lock_guard<std::mutex> lock(futures_mu_);
  const auto it = futures_.find(after);
  return it == futures_.end() ||
         it->second.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
}

// Requiring the predecessor's response, not just its lookup, keeps a
// connection's counters in request order: a `stats` pipelined before a hit
// never counts that hit.
std::optional<std::string> Service::answer_hit(const std::string& line,
                                               std::uint64_t after) {
  if (stopped_.load(std::memory_order_acquire) || !completed(after)) {
    return std::nullopt;
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::string resp;
  try {
    const JsonObject req = parse_json_object(line);
    if (req.get_string("op") != "determine") return std::nullopt;
    const Determine d = resolve_determine(req);
    const std::shared_ptr<const CachedMap> r = cache_.lookup(d.key);
    if (!r) return std::nullopt;
    resp = determine_response(req.raw_token("id"), "hit", d.key, *r,
                              d.include_map);
  } catch (const std::exception&) {
    return std::nullopt;  // a worker writes the error response
  }
  const int shard = opt_.workers;
  requests_total_->inc(shard);
  served_.determine.fetch_add(1, std::memory_order_relaxed);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  op_latency_us_[0]->record(static_cast<std::uint64_t>(us), shard);
  return resp;
}

// A worker only waits on an `after` ticket that was queued before its own:
// the queue is FIFO, so that ticket is already held by a worker, and the
// chain of waits always ends at a request that waits on nothing.
void Service::await_lookup(std::uint64_t after) {
  if (after == 0) return;
  std::unique_lock<std::mutex> lock(lookup_mu_);
  lookup_cv_.wait(lock, [&] { return !lookups_ahead_.contains(after); });
}

void Service::lookup_done(std::uint64_t ticket) {
  {
    std::lock_guard<std::mutex> lock(lookup_mu_);
    if (lookups_ahead_.erase(ticket) == 0) return;
  }
  lookup_cv_.notify_all();
}

std::string Service::handle_line(const Job& job, int worker) {
  // One line = one request: counted on entry so a sequential scrape always
  // sees requests_total == sum of the per-op served counters + rejected
  // (an invariant CI asserts against a live daemon). Latency is recorded
  // into the matched op's histogram on every exit path, including handler
  // failures — an error response took time too.
  const auto t0 = std::chrono::steady_clock::now();
  requests_total_->inc(worker);
  std::string op;
  std::string id;
  int op_idx = -1;
  std::string resp;
  try {
    const JsonObject req = parse_json_object(job.line);
    id = req.raw_token("id");
    op = req.require_string("op");
    // Only a determine looks the cache up in order; no other op holds up
    // the requests pipelined behind it.
    if (op != "determine") lookup_done(job.ticket);
    if (op == "determine") {
      op_idx = 0;
      served_.determine.fetch_add(1, std::memory_order_relaxed);
      resp = handle_determine(req, id, job, worker);
    } else if (op == "verify") {
      op_idx = 1;
      served_.verify.fetch_add(1, std::memory_order_relaxed);
      resp = handle_verify(req, id);
    } else if (op == "sweep") {
      op_idx = 2;
      served_.sweep.fetch_add(1, std::memory_order_relaxed);
      resp = handle_sweep(req, id, job.ticket, worker);
    } else if (op == "stats") {
      op_idx = 3;
      served_.stats.fetch_add(1, std::memory_order_relaxed);
      resp = handle_stats(req, id);
    } else if (op == "metrics") {
      op_idx = 4;
      served_.metrics.fetch_add(1, std::memory_order_relaxed);
      resp = handle_metrics(req, id);
    } else if (op == "shutdown") {
      op_idx = 5;
      served_.shutdown.fetch_add(1, std::memory_order_relaxed);
      shutdown_.store(true, std::memory_order_release);
      JsonWriter w;
      if (!id.empty()) w.field_raw("id", id);
      resp = w.field("op", "shutdown").field("ok", true).str();
    } else {
      throw JsonError(
          "unknown op \"" + op +
          "\" (known: determine verify sweep stats metrics shutdown)");
    }
  } catch (const std::exception& e) {
    if (op_idx < 0) rejected_->inc(worker);
    served_.errors.fetch_add(1, std::memory_order_relaxed);
    JsonWriter w;
    if (!id.empty()) w.field_raw("id", id);
    if (!op.empty()) w.field("op", op);
    resp = w.field("ok", false).field("error", std::string(e.what())).str();
  }
  if (op_idx >= 0) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    op_latency_us_[op_idx]->record(static_cast<std::uint64_t>(us), worker);
  }
  return resp;
}

Service::Determine Service::resolve_determine(const JsonObject& req) {
  Determine d;
  // The identity of a pure family request, read with request_graph's
  // defaults; nullopt for inline graphs (their text is not a safe key) and
  // for fields that would not read, whose errors the build reports.
  std::optional<FamilyIdentity> identity;
  if (req.has("family") && !req.has("graph")) {
    try {
      identity = FamilyIdentity{req.require_string("family"),
                                req.get_u64("nodes", 16),
                                req.get_u64("seed", 1),
                                req.get_u64("root", 0)};
    } catch (const JsonError&) {
    }
  }
  std::optional<std::uint64_t> hash;
  if (identity) {
    std::lock_guard<std::mutex> lock(identity_mu_);
    const auto it = identities_.find(*identity);
    if (it != identities_.end()) hash = it->second;
  }
  if (!hash) {
    d.build(req);  // throws every validation error a build would
    hash = canonical_hash(*d.graph, d.root);
    if (identity) {
      std::lock_guard<std::mutex> lock(identity_mu_);
      if (identities_.size() >= opt_.cache_capacity) identities_.clear();
      identities_.emplace(std::move(*identity), *hash);
    }
  }
  d.config = runner::make_engine_config(req.get_string("config", "ratio3"));
  d.max_ticks = req.get_i64("max_ticks", 0);
  d.include_map = req.get_bool("include_map", true);
  d.key = CacheKey{*hash, d.config.label};
  return d;
}

std::string Service::handle_determine(const JsonObject& req,
                                      const std::string& id,
                                      const Job& job, int worker) {
  Arena* arena = &arenas_[static_cast<std::size_t>(worker)];
  Determine d = resolve_determine(req);

  await_lookup(job.after);
  std::string outcome;
  JsonWriter w;
  if (!id.empty()) w.field_raw("id", id);
  w.field("op", "determine");
  try {
    // The tick budget discriminates the *in-flight* identity only: budgets
    // never change a success (so completed entries ignore them), but a
    // strangled run's budget failure must not be inherited by a
    // generously-budgeted concurrent twin.
    const std::shared_ptr<const CachedMap> r = cache_.get_or_compute(
        d.key,
        [&] {
          d.build(req);
          return execute_determine(*d.graph, d.root, d.config, d.max_ticks,
                                   d.label, arena, &engine_metrics_, worker);
        },
        &outcome, static_cast<std::uint64_t>(d.max_ticks),
        [&] { lookup_done(job.ticket); });
    // Only the computing caller persists the entry (hits replayed it, and
    // coalesced twins share the one computation), so the store grows by at
    // most one record per fresh determination.
    if (store_ && outcome == "miss") store_->append(d.key, *r);
    return determine_response(id, outcome, d.key, *r, d.include_map);
  } catch (const DetermineError& e) {
    served_.errors.fetch_add(1, std::memory_order_relaxed);
    w.field("ok", false)
        .field("status", e.status())
        .field("cache", outcome)
        .field("key", hash_hex(d.key.graph_hash))
        .field("error", std::string(e.what()));
  } catch (const Error& e) {
    // A protocol-invariant violation (fail-loud posture): the run threw.
    served_.errors.fetch_add(1, std::memory_order_relaxed);
    w.field("ok", false)
        .field("status", "violation")
        .field("cache", outcome)
        .field("key", hash_hex(d.key.graph_hash))
        .field("error", std::string(e.what()));
  }
  if (!opt_.trace_dir.empty()) {
    d.build(req);
    const std::string path =
        capture_determine_trace(*d.graph, d.root, d.config, d.max_ticks,
                                opt_.trace_dir, job.ticket, arena);
    if (!path.empty()) w.field("trace", path);
  }
  return w.str();
}

std::string Service::handle_verify(const JsonObject& req,
                                   const std::string& id) {
  std::string label;
  const PortGraph g = request_graph(req, &label);
  const NodeId root = request_root(req, g);
  const TopologyMap map = map_from_string(req.require_string("map"));
  const VerifyResult v = verify_map(g, root, map);
  JsonWriter w;
  if (!id.empty()) w.field_raw("id", id);
  w.field("op", "verify")
      .field("ok", v.ok)
      .field("label", label)
      .field("nodes", static_cast<std::uint64_t>(map.node_count()))
      .field("edges", static_cast<std::uint64_t>(map.edge_count()));
  if (!v.ok) w.field("detail", v.detail);
  return w.str();
}

std::string Service::handle_sweep(const JsonObject& req, const std::string& id,
                                  std::uint64_t ticket, int worker) {
  runner::CampaignSpec spec;
  if (req.has("families")) {
    spec.families = runner::parse_name_list(req.require_string("families"));
    runner::check_families(spec.families);
  }
  if (req.has("sizes")) spec.sizes = parse_sizes(req.require_string("sizes"));
  if (req.has("seeds")) {
    spec.seeds = runner::parse_u64_list("seeds", req.require_string("seeds"));
  }
  if (req.has("configs")) {
    spec.configs.clear();
    for (const std::string& name :
         runner::parse_name_list(req.require_string("configs"))) {
      spec.configs.push_back(runner::make_engine_config(name));
    }
  }
  if (req.has("scenarios")) {
    spec.scenarios = runner::parse_scenario_list(req.require_string("scenarios"));
  }
  spec.root = static_cast<NodeId>(req.get_u64("root", 0));
  spec.max_ticks = req.get_i64("max_ticks", 0);

  runner::RunnerOptions ropt;
  // The campaign runs single-threaded inside this worker: daemon-level
  // concurrency comes from the service's own ThreadPool, and nesting pools
  // per request would oversubscribe without changing any result (campaign
  // output is thread-count invariant by construction).
  ropt.threads = 1;
  // The campaign's engines record under this worker's shard; concurrent
  // sweeps on different workers never share an instrument cache line.
  ropt.metrics = &engine_metrics_;
  ropt.metrics_shard_base = worker;
  if (!opt_.trace_dir.empty()) {
    const std::string dir =
        opt_.trace_dir + "/req-" + std::to_string(ticket);
    std::filesystem::create_directories(dir);
    ropt.trace_dir = dir;
  }
  const runner::CampaignResult result = runner::run_campaign(spec, ropt);

  std::uint64_t total_ticks = 0, total_messages = 0;
  std::string jobs = "[";
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const runner::JobResult& j = result.jobs[i];
    total_ticks += static_cast<std::uint64_t>(j.ticks);
    total_messages += j.messages;
    JsonWriter jw;
    jw.field("index", static_cast<std::uint64_t>(j.spec.index))
        .field("label", j.label)
        .field("seed", j.spec.seed)
        .field("config", j.spec.config.label)
        .field("scenario", j.spec.scenario.label)
        .field("status", runner::to_cstr(j.status))
        .field("n", static_cast<std::uint64_t>(j.n))
        .field("d", static_cast<std::uint64_t>(j.d))
        .field("e", static_cast<std::uint64_t>(j.e))
        .field("ticks", static_cast<std::int64_t>(j.ticks))
        .field("messages", j.messages)
        .field("node_steps", j.node_steps);
    if (!j.detail.empty()) jw.field("detail", j.detail);
    if (!j.trace_file.empty()) jw.field("trace", j.trace_file);
    jobs += (i ? ", " : "") + jw.str();
  }
  jobs += "]";

  if (!result.all_ok()) {
    served_.errors.fetch_add(1, std::memory_order_relaxed);
  }
  JsonWriter w;
  if (!id.empty()) w.field_raw("id", id);
  return w.field("op", "sweep")
      .field("ok", result.all_ok())
      .field("jobs", static_cast<std::uint64_t>(result.jobs.size()))
      .field("exact",
             static_cast<std::uint64_t>(result.jobs.size() - result.failed()))
      .field("failed", static_cast<std::uint64_t>(result.failed()))
      .field("ticks", total_ticks)
      .field("messages", total_messages)
      .field_raw("results", jobs)
      .str();
}

std::array<std::uint64_t, std::size(kStatsServedFields)>
Service::Served::values() const {
  const std::uint64_t v[] = {determine.load(std::memory_order_relaxed),
                             verify.load(std::memory_order_relaxed),
                             sweep.load(std::memory_order_relaxed),
                             stats.load(std::memory_order_relaxed),
                             metrics.load(std::memory_order_relaxed),
                             shutdown.load(std::memory_order_relaxed),
                             errors.load(std::memory_order_relaxed)};
  static_assert(std::size(v) == std::size(kStatsServedFields));
  return std::to_array(v);
}

std::string Service::handle_stats(const JsonObject& req,
                                  const std::string& id) {
  (void)req;
  const CacheStats c = cache_.stats();
  const std::uint64_t cache_values[] = {
      static_cast<std::uint64_t>(c.capacity),
      static_cast<std::uint64_t>(c.size),
      c.hits,
      c.misses,
      c.coalesced,
      c.inserts,
      c.evictions,
      c.executions};
  static_assert(std::size(cache_values) == std::size(kStatsCacheFields));
  const auto served_values = served_.values();
  JsonWriter cache_w;
  for (std::size_t f = 0; f < std::size(kStatsCacheFields); ++f) {
    cache_w.field(kStatsCacheFields[f], cache_values[f]);
  }
  JsonWriter served_w;
  for (std::size_t f = 0; f < std::size(kStatsServedFields); ++f) {
    served_w.field(kStatsServedFields[f], served_values[f]);
  }
  // Deliberately no worker-count or timing fields: the determinism
  // contract promises byte-identical session transcripts at any worker
  // count, and stats responses are part of the transcript. The daemon's
  // startup log line reports the configuration instead.
  JsonWriter w;
  if (!id.empty()) w.field_raw("id", id);
  return w.field("op", "stats")
      .field("ok", true)
      .field_raw("cache", cache_w.str())
      .field_raw("served", served_w.str())
      .str();
}

obs::Snapshot Service::metrics_snapshot() {
  obs::Snapshot s = registry_.snapshot();
  // Synthetic entries: state owned by other subsystems, sampled here so
  // one scrape reports one coherent view. All counters below are monotone,
  // which delta_since requires.
  const CacheStats c = cache_.stats();
  s.add_counter("cache_hits_total", c.hits);
  s.add_counter("cache_misses_total", c.misses);
  s.add_counter("cache_coalesced_total", c.coalesced);
  s.add_counter("cache_inserts_total", c.inserts);
  s.add_counter("cache_evictions_total", c.evictions);
  s.add_counter("cache_executions_total", c.executions);
  s.set_gauge("cache_size", static_cast<std::int64_t>(c.size));
  s.set_gauge("cache_capacity", static_cast<std::int64_t>(c.capacity));
  if (store_) {
    const CacheStoreStats st = store_->stats();
    s.add_counter("store_append_records_total", st.appended_records);
    s.add_counter("store_append_bytes_total", st.appended_bytes);
    s.add_counter("store_replayed_records_total", warm_loaded_);
    s.add_counter("store_replayed_bytes_total", warm_bytes_);
  }
  const auto served_values = served_.values();
  for (std::size_t f = 0; f < std::size(kStatsServedFields); ++f) {
    s.add_counter(
        std::string("service_") + kStatsServedFields[f] + "_served_total",
        served_values[f]);
  }
  s.set_gauge("service_queue_depth", static_cast<std::int64_t>(queue_.size()));
  s.set_gauge("service_workers", opt_.workers);
  return s;
}

// The telemetry scrape. Unlike every other op, the response carries
// measurements (latency histograms, tick timings), so it is exempt from
// the byte-identity transcript contract — and scraping it perturbs nothing:
// recording is lock-free and write-only, reading sums the shards.
std::string Service::handle_metrics(const JsonObject& req,
                                    const std::string& id) {
  obs::Snapshot s = metrics_snapshot();
  const bool delta = req.get_bool("delta", false);
  if (delta) {
    // The delta window is per *daemon*, not per client: each delta scrape
    // reports everything since the previous delta scrape (cumulative
    // scrapes never disturb the baseline). dtopctl top is the intended
    // single consumer; concurrent delta scrapers would split the stream.
    std::lock_guard<std::mutex> lock(metrics_mu_);
    obs::Snapshot d = s.delta_since(metrics_baseline_);
    metrics_baseline_ = std::move(s);
    s = std::move(d);
  }
  JsonWriter w;
  if (!id.empty()) w.field_raw("id", id);
  w.field("op", "metrics").field("ok", true).field("delta", delta);
  write_snapshot_fields(w, s);
  return w.str();
}

}  // namespace dtop::service
