// The `dtopctl metrics` and `dtopctl top` subcommands: the CLI face of the
// dtopd `metrics` protocol op (src/obs + service/metrics_wire.hpp).
//
// `metrics` is a one-shot scrape — table for humans, raw line-JSON for
// scripts, Prometheus text exposition for a scrape pipeline. `top` is the
// live view: it primes the target's delta baseline with one throwaway
// scrape, then renders a frame per interval from `"delta": true` windows —
// throughput and per-op latency quantiles, cache hit rate over the window,
// and engine tick-phase timings.
#include <chrono>
#include <cstdlib>
#include <thread>

#include "cli/cli.hpp"
#include "cli/cli_io.hpp"
#include "cli/flags.hpp"
#include "obs/expose.hpp"
#include "obs/registry.hpp"
#include "service/json.hpp"
#include "service/metrics_wire.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/signals.hpp"
#include "support/table.hpp"

namespace dtop::cli {
namespace {

double parse_interval(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (!end || *end != '\0' || !(v > 0.0)) {
    throw UsageError(flag + " expects a positive number of seconds, got '" +
                     value + "'");
  }
  return v;
}

// One `metrics` request on the target connection.
std::string scrape(service::ClientChannel& channel, bool delta) {
  service::JsonWriter w;
  w.field("op", "metrics");
  if (delta) w.field("delta", true);
  channel.send(w.str());
  const std::optional<std::string> resp = channel.recv();
  if (!resp) throw Error("server closed the connection mid-scrape");
  return *resp;
}

void histogram_row(Table& t, const std::string& name, const obs::Histogram& h) {
  t.row()
      .cell(name)
      .cell(h.count())
      .cell(h.mean(), 1)
      .cell(h.quantile(50), 1)
      .cell(h.quantile(95), 1)
      .cell(h.quantile(99), 1)
      .cell(h.max());
}

void render_tables(const obs::Snapshot& s, bool delta, std::ostream& os) {
  const char* window = delta ? "delta window" : "cumulative";
  Table counters({"counter", "value"});
  counters.set_caption(std::string("dtopd metrics — counters (") + window +
                       ")");
  for (const auto& c : s.counters) counters.row().cell(c.name).cell(c.value);
  counters.print(os);
  os << "\n";

  Table gauges({"gauge", "value"});
  gauges.set_caption("gauges (instantaneous)");
  for (const auto& g : s.gauges) gauges.row().cell(g.name).cell(g.value);
  gauges.print(os);
  os << "\n";

  Table hists(
      {"histogram", "count", "mean", "p50", "p95", "p99", "max"});
  hists.set_caption(std::string("histograms (") + window +
                    "; values in the unit the name ends in)");
  for (const auto& h : s.histograms) histogram_row(hists, h.name, h.hist);
  hists.print(os);
}

// One `top` frame from a delta snapshot. Rates divide the window's counter
// deltas by the actual elapsed seconds, not the requested interval.
void render_frame(const obs::Snapshot& s, const std::string& target,
                  double elapsed, std::uint64_t frame, std::ostream& os) {
  const auto rate = [&](const std::string& name) {
    return static_cast<double>(s.counter_or(name)) / elapsed;
  };
  const auto gauge = [&](const char* name) {
    const obs::Snapshot::GaugeValue* g = s.find_gauge(name);
    return g ? g->value : 0;
  };

  os << "dtopctl top — " << target << "   window "
     << format_double(elapsed, 1) << "s   frame " << frame << "\n";

  const std::uint64_t hits = s.counter_or("cache_hits_total");
  const std::uint64_t misses = s.counter_or("cache_misses_total");
  const std::uint64_t coalesced = s.counter_or("cache_coalesced_total");
  const std::uint64_t lookups = hits + misses + coalesced;
  os << "requests/s " << format_double(rate("service_requests_total"), 1)
     << "   queue " << gauge("service_queue_depth") << "   workers "
     << gauge("service_workers") << "   cache " << gauge("cache_size") << "/"
     << gauge("cache_capacity") << " (hit "
     << format_double(
            lookups ? 100.0 * static_cast<double>(hits) /
                          static_cast<double>(lookups)
                    : 0.0,
            1)
     << "% of " << lookups << " lookups)\n\n";

  Table ops({"op", "req/s", "p50_us", "p95_us", "p99_us", "max_us"});
  ops.set_caption("per-op throughput and latency (this window)");
  for (std::size_t i = 0; i < service::kServedOpCount; ++i) {
    const std::string op = service::kStatsServedFields[i];
    const obs::Snapshot::HistogramValue* h =
        s.find_histogram("service_" + op + "_latency_us");
    ops.row()
        .cell(op)
        .cell(rate("service_" + op + "_served_total"), 1)
        .cell(h ? h->hist.quantile(50) : 0.0, 1)
        .cell(h ? h->hist.quantile(95) : 0.0, 1)
        .cell(h ? h->hist.quantile(99) : 0.0, 1)
        .cell(h ? h->hist.max() : 0);
  }
  ops.print(os);

  const std::uint64_t ticks = s.counter_or("engine_ticks_total");
  if (ticks) {
    const obs::Snapshot::HistogramValue* step =
        s.find_histogram("engine_tick_step_ns");
    const obs::Snapshot::HistogramValue* imb =
        s.find_histogram("engine_worker_imbalance_pct");
    os << "\nengine: ticks/s " << format_double(rate("engine_ticks_total"), 0)
       << "   node_steps/s "
       << format_double(rate("engine_node_steps_total"), 0) << "   forked "
       << format_double(100.0 *
                            static_cast<double>(
                                s.counter_or("engine_forked_ticks_total")) /
                            static_cast<double>(ticks),
                        1)
       << "% of ticks   step p95 "
       << format_double(step ? step->hist.quantile(95) / 1000.0 : 0.0, 1)
       << " us   imbalance p95 "
       << format_double(imb ? imb->hist.quantile(95) : 0.0, 0) << "%\n";
  }
  os.flush();
}

// Sleeps ~`seconds`, returning false early when SIGINT/SIGTERM arrives.
bool interruptible_sleep(double seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    if (service::SignalGuard::flag().load(std::memory_order_acquire)) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

}  // namespace

MetricsOptions parse_metrics_args(const std::vector<std::string>& args) {
  MetricsOptions opt;
  FlagWalker w(args);
  while (w.next()) {
    const std::string& f = w.flag();
    if (f == "--endpoint") {
      opt.endpoint = w.value();
    } else if (f == "--format") {
      opt.format = w.value();
      if (opt.format != "table" && opt.format != "json" &&
          opt.format != "prom") {
        throw UsageError("--format must be table, json, or prom");
      }
    } else if (f == "--delta") {
      opt.delta = true;
    } else if (f == "--out") {
      opt.out = w.value();
    } else {
      throw UsageError("unknown flag '" + f + "' for 'metrics'");
    }
  }
  if (opt.endpoint.empty()) throw UsageError("'metrics' needs --endpoint EP");
  return opt;
}

TopOptions parse_top_args(const std::vector<std::string>& args) {
  TopOptions opt;
  FlagWalker w(args);
  while (w.next()) {
    const std::string& f = w.flag();
    if (f == "--endpoint") {
      opt.endpoint = w.value();
    } else if (f == "--interval") {
      opt.interval = parse_interval(f, w.value());
    } else if (f == "--iterations") {
      opt.iterations = parse_u64(f, w.value());
    } else if (f == "--no-clear") {
      opt.no_clear = true;
    } else {
      throw UsageError("unknown flag '" + f + "' for 'top'");
    }
  }
  if (opt.endpoint.empty()) throw UsageError("'top' needs --endpoint EP");
  return opt;
}

int metrics_command(const MetricsOptions& opt, std::ostream& out,
                    std::ostream& err) {
  service::ClientChannel channel(opt.endpoint);
  const std::string resp = scrape(channel, opt.delta);
  if (resp.find("\"ok\": true") == std::string::npos) {
    err << "error: metrics scrape failed: " << resp << "\n";
    return 1;
  }
  with_output(opt.out, out, [&](std::ostream& os) {
    if (opt.format == "json") {
      os << resp << "\n";
      return;
    }
    const obs::Snapshot s = service::parse_snapshot_response(resp);
    if (opt.format == "prom") {
      os << obs::to_prometheus(s);
      return;
    }
    render_tables(s, opt.delta, os);
  });
  return 0;
}

int top_command(const TopOptions& opt, std::ostream& out, std::ostream& err) {
  service::ClientChannel channel(opt.endpoint);

  service::SignalGuard guard;
  service::SignalGuard::reset();

  // Prime the delta baseline: the first delta window would otherwise span
  // the target's whole uptime and drown the live rates.
  scrape(channel, /*delta=*/true);

  using clock = std::chrono::steady_clock;
  clock::time_point mark = clock::now();
  std::uint64_t frame = 0;
  while (!guard.triggered()) {
    if (!interruptible_sleep(opt.interval)) break;
    const std::string resp = scrape(channel, /*delta=*/true);
    const clock::time_point now = clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - mark).count();
    mark = now;
    if (resp.find("\"ok\": true") == std::string::npos) {
      err << "error: metrics scrape failed: " << resp << "\n";
      return 1;
    }
    const obs::Snapshot s = service::parse_snapshot_response(resp);
    if (!opt.no_clear) out << "\x1b[H\x1b[2J";
    render_frame(s, opt.endpoint, elapsed, ++frame, out);
    if (opt.iterations && frame >= opt.iterations) return 0;
  }
  // An interactive top ends by Ctrl-C; exit by the repo's interrupted-
  // command convention (128+signal) so scripted callers can tell a full
  // --iterations run (0) from a cut-short one.
  return guard.triggered() ? service::SignalGuard::exit_code() : 0;
}

}  // namespace dtop::cli
