// The `dtopctl cluster` subcommand: spawn and babysit N dtopd shards.
//
// Each shard is one `dtopctl serve` child process on its own Unix socket
// (DIR/shard-<i>.sock) or, with --tcp-base PORT, its own TCP port
// (127.0.0.1:<PORT+i>). With --cache-dir DIR each shard also gets a
// persistent cache store (DIR/shard-<i>.cache) so a restarted child
// warm-starts with every answer it had already computed.
// Process isolation is the point: a shard crash
// cannot take the cluster down, and the supervisor restarts the child (up
// to a per-shard budget) while the client-side dispatcher fails the
// affected requests over to the surviving shards. Children exiting cleanly
// (a client-driven cluster-wide shutdown drains every shard) are not
// restarted; when the last one is gone the supervisor exits 0.
// SIGINT/SIGTERM forward a SIGTERM to every child (each drains in-flight
// requests), then the supervisor reaps them and exits 128+signal — the same
// drain contract `serve` and `sweep` hold.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cli/cli.hpp"
#include "cli/flags.hpp"
#include "service/server.hpp"
#include "service/signals.hpp"

extern char** environ;

namespace dtop::cli {
namespace {

using namespace std::chrono_literals;

// True when something accepts connections on the endpoint — AF_UNIX path
// or TCP host:port (the same probe the clients and tests use, so
// endpoint-grammar edge cases live in one place: service::ClientChannel).
bool socket_alive(const std::string& endpoint) {
  try {
    service::ClientChannel probe(endpoint);
    return true;
  } catch (const Error&) {
    return false;
  }
}

// create_directories with failures mapped onto the repo's Error type so
// cli_main turns an uncreatable --socket-dir/--trace-dir into the
// documented exit 1, not an unhandled filesystem_error abort.
void make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    throw Error("cannot create directory '" + path + "': " + ec.message());
  }
}

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "exit code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "signal " + std::to_string(WTERMSIG(status));
  }
  return "status " + std::to_string(status);
}

struct Shard {
  std::string socket;     // endpoint: unix path or "127.0.0.1:<port>"
  std::string cache_store;  // "" = no persistence
  std::string trace_dir;  // "" = no capture
  pid_t pid = -1;         // -1: not running
  int restarts = 0;
  bool done = false;      // exited cleanly (drained), do not restart
  bool abandoned = false; // crash-restart budget exhausted
};

class Supervisor {
 public:
  Supervisor(const ClusterOptions& opt, std::ostream& out)
      : opt_(opt), out_(out) {
    exe_ = opt.exe.empty() ? "/proc/self/exe" : opt.exe;
  }

  int run() {
    if (opt_.tcp_base == 0) make_dirs(opt_.socket_dir);
    if (!opt_.cache_dir.empty()) make_dirs(opt_.cache_dir);
    for (int i = 0; i < opt_.shards; ++i) {
      Shard shard;
      shard.socket = shard_socket(opt_, i);
      if (!opt_.cache_dir.empty()) {
        shard.cache_store =
            opt_.cache_dir + "/shard-" + std::to_string(i) + ".cache";
      }
      if (!opt_.trace_dir.empty()) {
        shard.trace_dir = opt_.trace_dir + "/shard-" + std::to_string(i);
        make_dirs(shard.trace_dir);
      }
      shards_.push_back(std::move(shard));
    }

    service::SignalGuard guard;
    service::SignalGuard::reset();

    // Whatever goes wrong below — a spawn failure, an unexpected throw —
    // the children must never be orphaned: drain and reap before leaving.
    try {
      return supervise(guard);
    } catch (...) {
      terminate_all(SIGTERM);
      reap_all();
      throw;
    }
  }

  static std::string shard_socket(const ClusterOptions& opt, int index) {
    if (opt.tcp_base != 0) {
      return "127.0.0.1:" + std::to_string(opt.tcp_base + index);
    }
    return opt.socket_dir + "/shard-" + std::to_string(index) + ".sock";
  }

 private:
  int supervise(const service::SignalGuard& guard) {
    for (std::size_t i = 0; i < shards_.size(); ++i) spawn(i);
    if (!wait_ready(guard)) {
      terminate_all(SIGTERM);
      reap_all();
      if (guard.triggered()) {
        if (!opt_.quiet) out_ << "dtopctl cluster: interrupted, drained\n";
        return service::SignalGuard::exit_code();
      }
      return 1;
    }
    if (!opt_.quiet) {
      out_ << "dtopctl cluster: " << shards_.size() << " shards ready under "
           << (opt_.tcp_base != 0
                   ? "127.0.0.1:" + std::to_string(opt_.tcp_base) + "+"
                   : opt_.socket_dir)
           << "\n"
           << std::flush;
    }

    // Babysit until every shard has drained (clean exits) or a signal asks
    // the whole cluster down.
    for (;;) {
      if (guard.triggered()) {
        terminate_all(SIGTERM);
        reap_all();
        if (!opt_.quiet) out_ << "dtopctl cluster: interrupted, drained\n";
        return service::SignalGuard::exit_code();
      }
      poll_children();
      if (live_count() == 0) break;
      std::this_thread::sleep_for(50ms);
    }
    const bool crashed_out = std::any_of(
        shards_.begin(), shards_.end(),
        [](const Shard& s) { return s.abandoned; });
    if (!opt_.quiet) {
      out_ << "dtopctl cluster: " << (crashed_out ? "degraded exit" : "drained")
           << "\n";
    }
    return crashed_out ? 1 : 0;
  }

  void spawn(std::size_t index) {
    Shard& shard = shards_[index];
    const char* transport_flag = opt_.tcp_base != 0 ? "--listen" : "--socket";
    std::vector<std::string> args = {exe_,          "serve",
                                     transport_flag, shard.socket,
                                     "--workers", std::to_string(opt_.workers),
                                     "--cache",  std::to_string(opt_.cache),
                                     "--quiet"};
    if (!shard.cache_store.empty()) {
      args.push_back("--cache-store");
      args.push_back(shard.cache_store);
    }
    if (!shard.trace_dir.empty()) {
      args.push_back("--trace-dir");
      args.push_back(shard.trace_dir);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int rc =
        ::posix_spawn(&pid, exe_.c_str(), nullptr, nullptr, argv.data(),
                      environ);
    if (rc != 0) {
      throw Error("cannot spawn shard " + std::to_string(index) + " (" +
                  exe_ + "): " + std::strerror(rc));
    }
    shard.pid = pid;
    if (!opt_.quiet) {
      out_ << "dtopctl cluster: shard " << index << " -> " << shard.socket
           << " (pid " << pid << ")\n"
           << std::flush;
    }
  }

  bool wait_ready(const service::SignalGuard& guard) {
    const auto deadline = std::chrono::steady_clock::now() + 15s;
    for (;;) {
      // Ctrl-C during startup must not spin out the 15s deadline; run()
      // maps the early false into the documented 128+sig exit.
      if (guard.triggered()) return false;
      poll_children();  // a shard that died at bind time must not hang us
      bool all = true;
      for (const Shard& shard : shards_) {
        if (shard.abandoned || shard.done) {
          out_ << "dtopctl cluster: shard " << shard.socket
               << " died during startup\n";
          return false;
        }
        if (!socket_alive(shard.socket)) all = false;
      }
      if (all) return true;
      if (std::chrono::steady_clock::now() > deadline) {
        out_ << "dtopctl cluster: shards not ready after 15s\n";
        return false;
      }
      std::this_thread::sleep_for(20ms);
    }
  }

  // Reaps exited children; restarts crashed ones within budget.
  void poll_children() {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = shards_[i];
      if (shard.pid < 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(shard.pid, &status, WNOHANG);
      if (r != shard.pid) continue;
      shard.pid = -1;
      const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (clean) {
        shard.done = true;  // drained via a shutdown request
        continue;
      }
      if (shard.restarts >= opt_.max_restarts) {
        shard.abandoned = true;
        out_ << "dtopctl cluster: shard " << i << " (" << describe_exit(status)
             << ") exceeded its restart budget — leaving it down\n"
             << std::flush;
        continue;
      }
      ++shard.restarts;
      if (!opt_.quiet) {
        out_ << "dtopctl cluster: shard " << i << " died ("
             << describe_exit(status) << ") — restarting (" << shard.restarts
             << "/" << opt_.max_restarts << ")\n"
             << std::flush;
      }
      try {
        spawn(i);
      } catch (const Error& e) {
        // A failed respawn (binary replaced, fd exhaustion) downs this
        // shard only; the rest of the cluster keeps serving and the
        // dispatcher fails its keys over.
        shard.abandoned = true;
        out_ << "dtopctl cluster: shard " << i
             << " could not be respawned — leaving it down (" << e.what()
             << ")\n"
             << std::flush;
      }
    }
  }

  std::size_t live_count() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_)
      if (shard.pid >= 0) ++n;
    return n;
  }

  void terminate_all(int sig) {
    for (Shard& shard : shards_) {
      if (shard.pid >= 0) ::kill(shard.pid, sig);
    }
  }

  void reap_all() {
    for (Shard& shard : shards_) {
      if (shard.pid < 0) continue;
      int status = 0;
      while (::waitpid(shard.pid, &status, 0) < 0 && errno == EINTR) {
      }
      shard.pid = -1;
    }
  }

  ClusterOptions opt_;
  std::ostream& out_;
  std::string exe_;
  std::vector<Shard> shards_;
};

}  // namespace

ClusterOptions parse_cluster_args(const std::vector<std::string>& args) {
  ClusterOptions opt;
  FlagWalker w(args);
  while (w.next()) {
    const std::string& f = w.flag();
    if (f == "--shards") {
      opt.shards = parse_int_as<int>(f, w.value());
      if (opt.shards < 1) throw UsageError("--shards must be >= 1");
    } else if (f == "--socket-dir") {
      opt.socket_dir = w.value();
    } else if (f == "--tcp-base") {
      opt.tcp_base = parse_int_as<int>(f, w.value());
      if (opt.tcp_base < 1 || opt.tcp_base > 65535) {
        throw UsageError("--tcp-base must be a port in 1..65535");
      }
    } else if (f == "--cache-dir") {
      opt.cache_dir = w.value();
    } else if (f == "--workers") {
      opt.workers = parse_int_as<int>(f, w.value());
      if (opt.workers < 1) throw UsageError("--workers must be >= 1");
    } else if (f == "--cache") {
      opt.cache = parse_int_as<std::uint32_t>(f, w.value());
      if (opt.cache < 1) throw UsageError("--cache must be >= 1 entry");
    } else if (f == "--trace-dir") {
      opt.trace_dir = w.value();
    } else if (f == "--max-restarts") {
      opt.max_restarts = parse_int_as<int>(f, w.value());
    } else if (f == "--exe") {
      opt.exe = w.value();
    } else if (f == "--quiet") {
      opt.quiet = true;
    } else {
      throw UsageError("unknown flag '" + f + "' for 'cluster'");
    }
  }
  if (opt.socket_dir.empty() && opt.tcp_base == 0) {
    throw UsageError("'cluster' needs --socket-dir DIR or --tcp-base PORT");
  }
  if (opt.tcp_base != 0 &&
      opt.tcp_base + opt.shards - 1 > 65535) {
    throw UsageError("--tcp-base + --shards exceeds port 65535");
  }
  return opt;
}

std::vector<std::string> cluster_socket_paths(const ClusterOptions& opt) {
  std::vector<std::string> paths;
  for (int i = 0; i < opt.shards; ++i) {
    paths.push_back(Supervisor::shard_socket(opt, i));
  }
  return paths;
}

int cluster_command(const ClusterOptions& opt, std::ostream& out,
                    std::ostream& err) {
  (void)err;
  return Supervisor(opt, out).run();
}

}  // namespace dtop::cli
