#include "service/dispatcher.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "graph/canonical.hpp"
#include "graph/families.hpp"
#include "graph/port_graph.hpp"
#include "service/endpoint.hpp"
#include "service/metrics_wire.hpp"
#include "service/service.hpp"
#include "support/bytes.hpp"

namespace dtop::service {
namespace {

runner::JobStatus status_from_string(const std::string& s) {
  if (s == "exact") return runner::JobStatus::kExact;
  if (s == "residue") return runner::JobStatus::kResidue;
  if (s == "mismatch") return runner::JobStatus::kMismatch;
  if (s == "budget") return runner::JobStatus::kBudget;
  return runner::JobStatus::kViolation;
}

}  // namespace

// ---------------------------------------------------------------------------
// Endpoint: one pipelined connection to one shard.
// ---------------------------------------------------------------------------

class Dispatcher::Endpoint {
 public:
  explicit Endpoint(std::string path) : path_(std::move(path)) {}

  ~Endpoint() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closing_ = true;
      if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);  // wakes the blocking reader
    }
    if (reader_.joinable()) reader_.join();
  }

  const std::string& path() const { return path_; }

  // Enqueues one line on the shared connection (connecting on demand) and
  // returns the future of its response. Throws EndpointDown when the shard
  // cannot be reached; the returned future throws EndpointDown if the shard
  // dies before answering.
  std::future<std::string> submit(const std::string& line) {
    std::unique_lock<std::mutex> lock(mu_);
    if (fd_ < 0) {
      // The previous reader (if any) has exited — fd_ only returns to -1 on
      // its way out — so joining here cannot block on live I/O.
      if (reader_.joinable()) {
        std::thread old;
        old.swap(reader_);
        lock.unlock();
        old.join();
        lock.lock();
      }
      if (fd_ < 0) connect_locked();
    }
    auto pending = std::make_shared<std::promise<std::string>>();
    std::future<std::string> future = pending->get_future();
    fifo_.push_back(pending);
    if (!write_locked(line + "\n")) {
      // Wake the reader (close() would not interrupt its blocked read())
      // and let IT tear the connection down: the reader owns the fd's
      // close, so a stale reader can never read a recycled descriptor.
      ::shutdown(fd_, SHUT_RDWR);
      throw EndpointDown("cannot write to shard '" + path_ + "'");
    }
    return future;
  }

 private:
  // Pre: lock held, fd_ < 0, no reader running.
  void connect_locked() {
    int fd = -1;
    try {
      fd = connect_endpoint(parse_endpoint(path_));
    } catch (const Error& e) {
      throw EndpointDown("cannot connect to shard '" + path_ +
                         "': " + e.what());
    }
    fd_ = fd;
    reader_ = std::thread([this, fd] { reader_loop(fd); });
  }

  // Pre: lock held. Full blocking write; false on a dead peer.
  bool write_locked(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Pre: lock held. Tears the connection down and fails every pending
  // promise with EndpointDown so waiting callers fail over.
  void fail_locked(const std::string& why) {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    for (const auto& pending : fifo_) {
      pending->set_exception(std::make_exception_ptr(EndpointDown(why)));
    }
    fifo_.clear();
  }

  void reader_loop(int fd) {
    std::string buf;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EOF or error: the shard is gone
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = buf.find('\n', start); nl != std::string::npos;
           nl = buf.find('\n', start)) {
        std::string line = buf.substr(start, nl - start);
        start = nl + 1;
        if (!line.empty() && line.back() == '\r') line.pop_back();
        std::shared_ptr<std::promise<std::string>> pending;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (fifo_.empty()) continue;  // unsolicited line: drop it
          pending = fifo_.front();
          fifo_.pop_front();
        }
        pending->set_value(std::move(line));
      }
      buf.erase(0, start);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ == fd) {
      fail_locked(closing_ ? "dispatcher shutting down"
                           : "shard '" + path_ + "' closed the connection");
    }
  }

  const std::string path_;
  std::mutex mu_;
  int fd_ = -1;
  bool closing_ = false;
  std::thread reader_;
  std::deque<std::shared_ptr<std::promise<std::string>>> fifo_;
};

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

Dispatcher::Dispatcher(const DispatcherOptions& opt) : opt_(opt) {
  DTOP_REQUIRE(!opt_.sockets.empty(), "dispatcher needs at least one shard");
  DTOP_REQUIRE(opt_.vnodes >= 1, "dispatcher vnodes must be >= 1");
  DTOP_REQUIRE(opt_.ring_passes >= 1, "dispatcher ring passes must be >= 1");
  for (const std::string& path : opt_.sockets) {
    endpoints_.push_back(std::make_unique<Endpoint>(path));
  }
  for (std::size_t e = 0; e < opt_.sockets.size(); ++e) {
    for (int v = 0; v < opt_.vnodes; ++v) {
      ring_.emplace_back(
          fnv1a64(opt_.sockets[e] + "#" + std::to_string(v)), e);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

Dispatcher::~Dispatcher() {
  // Drain-then-join: copies already queued are still attempted (an orderly
  // dispatcher never silently drops a replica), then the worker exits.
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    repl_closing_ = true;
  }
  repl_cv_.notify_all();
  if (repl_worker_.joinable()) repl_worker_.join();
}

std::size_t Dispatcher::owner_of(std::uint64_t key) const {
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const auto& point, std::uint64_t k) { return point.first < k; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

std::vector<std::size_t> Dispatcher::ring_order(std::uint64_t key) const {
  std::vector<std::size_t> order;
  std::vector<bool> seen(endpoints_.size(), false);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const auto& point, std::uint64_t k) { return point.first < k; });
  for (std::size_t walked = 0;
       walked < ring_.size() && order.size() < endpoints_.size(); ++walked) {
    if (it == ring_.end()) it = ring_.begin();
    if (!seen[it->second]) {
      seen[it->second] = true;
      order.push_back(it->second);
    }
    ++it;
  }
  return order;
}

std::uint64_t Dispatcher::shard_key(const std::string& line) const {
  try {
    return request_key(parse_json_object(line), line);
  } catch (const std::exception&) {
    return fnv1a64(line);
  }
}

std::uint64_t Dispatcher::request_key(const JsonObject& req,
                                      const std::string& line) const {
  try {
    std::string label;
    const PortGraph g = request_graph(req, &label);
    return canonical_hash(g, request_root(req, g));
  } catch (const std::exception&) {
    // No network to key on (or a malformed request): hash the raw line.
    // Every shard produces the identical structured error response, so the
    // choice only has to be deterministic.
    return fnv1a64(line);
  }
}

std::string Dispatcher::call_keyed(std::uint64_t key, const std::string& line) {
  routed_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<std::size_t> order = ring_order(key);
  std::string last_error;
  bool first_attempt = true;
  for (int pass = 0; pass < opt_.ring_passes; ++pass) {
    for (const std::size_t idx : order) {
      if (!first_attempt) failovers_.fetch_add(1, std::memory_order_relaxed);
      first_attempt = false;
      try {
        std::string response = endpoints_[idx]->submit(line).get();
        maybe_replicate(key, idx, response);
        return response;
      } catch (const EndpointDown& e) {
        last_error = e.what();
      }
    }
  }
  throw Error("no cluster shard reachable (" +
              std::to_string(endpoints_.size()) + " endpoints tried): " +
              last_error);
}

void Dispatcher::maybe_replicate(std::uint64_t key, std::size_t served_by,
                                 const std::string& response) {
  if (opt_.replicas < 1 || endpoints_.size() < 2) return;
  // Cheap substring gate before any parse: only a *fresh* successful
  // determination has a copy worth pushing — hits were already replicated
  // when they were first computed, and failures are never cached at all.
  if (response.find("\"op\": \"determine\"") == std::string::npos ||
      response.find("\"ok\": true") == std::string::npos ||
      response.find("\"cache\": \"miss\"") == std::string::npos) {
    return;
  }
  bool start_worker = false;
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    if (repl_closing_) return;
    repl_queue_.push_back(ReplicaTask{key, served_by, response});
    ++repl_pending_;
    start_worker = !repl_worker_.joinable();
    if (start_worker) {
      repl_worker_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(repl_mu_);
        for (;;) {
          repl_cv_.wait(lock,
                        [&] { return repl_closing_ || !repl_queue_.empty(); });
          if (repl_queue_.empty()) return;  // closing and drained
          const ReplicaTask task = std::move(repl_queue_.front());
          repl_queue_.pop_front();
          lock.unlock();
          replicate(task);
          lock.lock();
          --repl_pending_;
          repl_cv_.notify_all();  // drain_replication waiters
        }
      });
    }
  }
  repl_cv_.notify_all();
}

void Dispatcher::replicate(const ReplicaTask& task) {
  try {
    const JsonObject resp = parse_json_object(task.response);
    const std::string key_hex = resp.require_string("key");
    const std::string config = resp.get_string("config", "ratio3");

    // The response carries the map unless the client opted out with
    // include_map=false; then the full record is pulled from the shard that
    // computed it (a stats-neutral cache_get, so the copy never shows up in
    // the owner's hit counters).
    JsonObject record = resp;
    if (!resp.has("map")) {
      JsonWriter get;
      get.field("op", "cache_get").field("key", key_hex).field("config",
                                                               config);
      const std::string got =
          endpoints_[task.served_by]->submit(get.str()).get();
      record = parse_json_object(got);
      if (!record.get_bool("found", false)) return;  // evicted already
    }

    JsonWriter put;
    put.field("op", "cache_put")
        .field("key", key_hex)
        .field("config", config)
        .field("label", record.get_string("label", "graph"))
        .field("n", record.get_u64("n", 0))
        .field("d", record.get_u64("d", 0))
        .field("e", record.get_u64("e", 0))
        .field("ticks", record.get_i64("ticks", 0))
        .field("messages", record.get_u64("messages", 0))
        .field("node_steps", record.get_u64("node_steps", 0))
        .field("map", record.require_string("map"));
    const std::string put_line = put.str();

    const std::vector<std::size_t> order = ring_order(task.key);
    int copies = 0;
    for (const std::size_t idx : order) {
      if (idx == task.served_by) continue;
      if (copies >= opt_.replicas) break;
      ++copies;
      try {
        const std::string ack = endpoints_[idx]->submit(put_line).get();
        if (ack.find("\"ok\": true") != std::string::npos) {
          replications_.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const EndpointDown&) {
        // Best effort: a successor that is down simply misses this copy.
      }
    }
  } catch (const std::exception&) {
    // Replication must never take a request path down with it.
  }
}

void Dispatcher::drain_replication() {
  std::unique_lock<std::mutex> lock(repl_mu_);
  repl_cv_.wait(lock, [&] { return repl_pending_ == 0; });
}

std::string Dispatcher::call(const std::string& line) {
  // One parse serves the op dispatch AND the shard-key derivation —
  // inline-graph lines run to megabytes, so a second parse is real work.
  // Malformed lines route by the raw-line hash: the owning shard produces
  // the structured error a single daemon would.
  try {
    const JsonObject req = parse_json_object(line);
    std::string op;
    try {
      op = req.get_string("op");
    } catch (const JsonError&) {
      // Non-string op: routed below, rejected by the shard.
    }
    if (op == "stats") return fan_out_stats(req);
    if (op == "metrics") return fan_out_metrics(req);
    if (op == "shutdown") return fan_out_shutdown(req);
    return call_keyed(request_key(req, line), line);
  } catch (const JsonError&) {
    return call_keyed(fnv1a64(line), line);
  }
}

// Broadcast helper: submits `line` to every endpoint in parallel, then
// collects each response — retrying a failed endpoint once (submit
// reconnects on demand, which heals a shard the supervisor just restarted
// or a pooled connection gone stale). Returns one response per endpoint;
// nullopt marks a shard that stayed unreachable, with `last_error` set.
std::vector<std::optional<std::string>> Dispatcher::broadcast(
    const std::string& line, std::string* last_error) {
  std::vector<std::future<std::string>> futures(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    try {
      futures[i] = endpoints_[i]->submit(line);
    } catch (const EndpointDown& e) {
      *last_error = e.what();
    }
  }
  std::vector<std::optional<std::string>> responses(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (futures[i].valid()) {
      try {
        responses[i] = futures[i].get();
        continue;
      } catch (const EndpointDown& e) {
        *last_error = e.what();
      }
    }
    try {
      responses[i] = endpoints_[i]->submit(line).get();  // the one retry
    } catch (const EndpointDown& e) {
      *last_error = e.what();
    }
  }
  return responses;
}

std::string Dispatcher::fan_out_stats(const JsonObject& req) {
  fan_outs_.fetch_add(1, std::memory_order_relaxed);
  const bool per_shard = req.get_bool("per_shard", false);
  // The schema is shared with Service::handle_stats (service.hpp): a
  // counter added there shows up here by construction, keeping the
  // aggregate exactly the single-daemon shape.
  std::uint64_t cache_sums[std::size(kStatsCacheFields)] = {};
  std::uint64_t served_sums[std::size(kStatsServedFields)] = {};
  std::size_t reachable = 0;
  std::string last_error = "no shard configured";
  std::string shards = "[";
  const std::vector<std::optional<std::string>> responses =
      broadcast("{\"op\": \"stats\"}", &last_error);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const std::optional<std::string>& resp = responses[i];
    JsonWriter sw;
    sw.field("endpoint", endpoints_[i]->path());
    if (!resp) {  // down shard: its counters are unreachable
      shards += (i ? ", " : "") + sw.field("ok", false).str();
      continue;
    }
    ++reachable;
    const JsonObject cache = parse_json_object(extract_object(*resp, "cache"));
    const JsonObject served =
        parse_json_object(extract_object(*resp, "served"));
    for (std::size_t f = 0; f < std::size(kStatsCacheFields); ++f) {
      cache_sums[f] += cache.get_u64(kStatsCacheFields[f], 0);
    }
    for (std::size_t f = 0; f < std::size(kStatsServedFields); ++f) {
      served_sums[f] += served.get_u64(kStatsServedFields[f], 0);
    }
    sw.field("ok", true)
        .field_raw("cache", extract_object(*resp, "cache"))
        .field_raw("served", extract_object(*resp, "served"));
    shards += (i ? ", " : "") + sw.str();
  }
  shards += "]";
  if (reachable == 0) {
    throw Error("no cluster shard reachable for stats: " + last_error);
  }
  JsonWriter cache_w;
  for (std::size_t f = 0; f < std::size(kStatsCacheFields); ++f) {
    cache_w.field(kStatsCacheFields[f], cache_sums[f]);
  }
  JsonWriter served_w;
  for (std::size_t f = 0; f < std::size(kStatsServedFields); ++f) {
    served_w.field(kStatsServedFields[f], served_sums[f]);
  }
  const std::string id = req.raw_token("id");
  JsonWriter w;
  if (!id.empty()) w.field_raw("id", id);
  w.field("op", "stats")
      .field("ok", true)
      .field_raw("cache", cache_w.str())
      .field_raw("served", served_w.str());
  if (per_shard) w.field_raw("shards", shards);
  return w.str();
}

std::string Dispatcher::fan_out_metrics(const JsonObject& req) {
  fan_outs_.fetch_add(1, std::memory_order_relaxed);
  const bool per_shard = req.get_bool("per_shard", false);
  const bool delta = req.get_bool("delta", false);
  // Forward only the fields the shards act on: the id is re-attached to
  // the aggregate, and per_shard is satisfied here from the raw responses.
  JsonWriter fw;
  fw.field("op", "metrics");
  if (delta) fw.field("delta", true);
  const std::string forward = fw.str();

  // Aggregation = the same snapshot algebra a single registry uses:
  // counters and gauges sum, histograms merge bucket-wise. Per-shard delta
  // baselines sum too, so a delta aggregate is exactly the cluster-wide
  // window since the previous delta scrape.
  obs::Snapshot total;
  std::size_t reachable = 0;
  std::string last_error = "no shard configured";
  std::string shards = "[";
  const std::vector<std::optional<std::string>> responses =
      broadcast(forward, &last_error);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const std::optional<std::string>& resp = responses[i];
    JsonWriter sw;
    sw.field("endpoint", endpoints_[i]->path());
    if (!resp) {
      shards += (i ? ", " : "") + sw.field("ok", false).str();
      continue;
    }
    ++reachable;
    total.merge(parse_snapshot_response(*resp));
    sw.field("ok", true)
        .field_raw("counters", extract_object(*resp, "counters"))
        .field_raw("gauges", extract_object(*resp, "gauges"))
        .field_raw("histograms", extract_object(*resp, "histograms"));
    shards += (i ? ", " : "") + sw.str();
  }
  shards += "]";
  if (reachable == 0) {
    throw Error("no cluster shard reachable for metrics: " + last_error);
  }
  const std::string id = req.raw_token("id");
  JsonWriter w;
  if (!id.empty()) w.field_raw("id", id);
  w.field("op", "metrics").field("ok", true).field("delta", delta);
  write_snapshot_fields(w, total);
  if (per_shard) w.field_raw("shards", shards);
  return w.str();
}

std::string Dispatcher::fan_out_shutdown(const JsonObject& req) {
  fan_outs_.fetch_add(1, std::memory_order_relaxed);
  std::size_t acked = 0;
  std::string last_error = "no shard configured";
  for (const std::optional<std::string>& resp :
       broadcast("{\"op\": \"shutdown\"}", &last_error)) {
    // A shard that stayed unreachable through the retry counts as already
    // drained (it is not serving anyone).
    if (resp) ++acked;
  }
  if (acked == 0) {
    throw Error("no cluster shard reachable for shutdown: " + last_error);
  }
  const std::string id = req.raw_token("id");
  JsonWriter w;
  if (!id.empty()) w.field_raw("id", id);
  return w.field("op", "shutdown").field("ok", true).str();
}

DispatchStats Dispatcher::stats() const {
  DispatchStats s;
  s.routed = routed_.load(std::memory_order_relaxed);
  s.fan_outs = fan_outs_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.replications = replications_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Cluster campaign backend
// ---------------------------------------------------------------------------

runner::JobResult remote_run_job(Dispatcher& dispatcher,
                                 const runner::JobSpec& job,
                                 const std::string& trace_dir) {
  const auto t0 = std::chrono::steady_clock::now();
  JsonWriter req;
  req.field("op", "sweep")
      .field("families", job.family)
      .field("sizes", std::to_string(job.nodes))
      .field("seeds", std::to_string(job.seed))
      .field("configs", job.config.label)
      .field("scenarios", job.scenario.label)
      .field("root", static_cast<std::uint64_t>(job.root))
      .field("max_ticks", static_cast<std::int64_t>(job.max_ticks));
  const std::string line = req.str();

  std::uint64_t key = fnv1a64(line);
  try {
    FamilyInstance fi = make_family(job.family, job.nodes, job.seed);
    if (job.root < fi.graph.num_nodes()) {
      key = canonical_hash(fi.graph, job.root);
    }
  } catch (const std::exception&) {
    // An invalid family/size fails identically on any shard; the line hash
    // keeps the choice deterministic.
  }

  runner::JobResult r;
  r.spec = job;
  // Only set once a shard actually executed the job and reported a row:
  // the local trace-capture fallback below must never fire for transport
  // failures, or a dead cluster would be silently papered over by local
  // execution instead of surfacing as violations.
  bool remote_row = false;
  try {
    const std::string resp = dispatcher.call_keyed(key, line);
    // Lift the single job row out of `"results": [ {...} ]`.
    const std::size_t at = resp.find("\"results\": [");
    if (at == std::string::npos) {
      // A request-level error (no rows): surface it as a violation so the
      // campaign records the failure instead of aborting.
      const JsonObject obj = parse_json_object(resp);
      throw Error(obj.get_string("error", "cluster sweep request failed"));
    }
    const std::size_t open = resp.find('{', at);
    DTOP_REQUIRE(open != std::string::npos,
                 "cluster sweep response carries no job row");
    const JsonObject row_obj = parse_json_object(balanced_object(resp, open));
    r.label = row_obj.get_string("label");
    r.n = static_cast<NodeId>(row_obj.get_u64("n", 0));
    r.d = static_cast<std::uint32_t>(row_obj.get_u64("d", 0));
    r.e = static_cast<std::uint32_t>(row_obj.get_u64("e", 0));
    r.status = status_from_string(row_obj.get_string("status", "violation"));
    r.detail = row_obj.get_string("detail");
    r.ticks = row_obj.get_i64("ticks", 0);
    r.messages = row_obj.get_u64("messages", 0);
    r.node_steps = row_obj.get_u64("node_steps", 0);
    remote_row = true;
  } catch (const std::exception& e) {
    r.status = runner::JobStatus::kViolation;
    r.detail = e.what();
  }
  if (!r.ok() && remote_row && !trace_dir.empty()) {
    // Jobs are pure functions of their spec: the local re-run reproduces
    // the remote failure exactly and captures job-<index>.dtrace under the
    // runner's own contract (it also overwrites r with the identical
    // locally-computed result, plus the trace path).
    return runner::run_job(job, trace_dir);
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

}  // namespace dtop::service
