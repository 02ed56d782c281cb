// The TCP transport for dtopd: the same line-JSON protocol over a
// host:port listener instead of (not in addition to — one listener per
// daemon) a Unix socket. The acceptance contract mirrors test_service.cpp's
// transport suite, re-run over TCP, plus the properties TCP adds: endpoint
// grammar, byte-identical responses across transports for the same request
// stream, port-collision and connection-refused diagnostics, and a
// restarted daemon warm-starting its cache from the persistent store.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "service/endpoint.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

namespace dtop::service {
namespace {

using namespace std::chrono_literals;

// ---------------------------- endpoint grammar ----------------------------

TEST(EndpointGrammar, HostPortIsTcpEverythingElseIsAPath) {
  const Endpoint tcp = parse_endpoint("127.0.0.1:8080");
  EXPECT_TRUE(tcp.tcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 8080);

  const Endpoint v6 = parse_endpoint("[::1]:9");
  EXPECT_TRUE(v6.tcp);
  EXPECT_EQ(v6.host, "::1");
  EXPECT_EQ(v6.port, 9);

  const Endpoint zero = parse_endpoint("localhost:0");
  EXPECT_TRUE(zero.tcp);
  EXPECT_EQ(zero.port, 0);  // "pick a free port"

  // A '/' anywhere, or a non-numeric tail, means a filesystem path — even
  // when it contains colons.
  EXPECT_FALSE(parse_endpoint("/tmp/dtopd.sock").tcp);
  EXPECT_FALSE(parse_endpoint("/tmp/with:colon/d.sock:123").tcp);
  EXPECT_FALSE(parse_endpoint("relative.sock").tcp);
  EXPECT_FALSE(parse_endpoint("host:port").tcp);  // tail is not digits
  EXPECT_EQ(parse_endpoint("host:port").path, "host:port");

  EXPECT_THROW(parse_endpoint(""), Error);
  EXPECT_THROW(parse_endpoint("h:99999"), Error);   // port > 65535
  EXPECT_THROW(parse_endpoint(":123"), Error);      // missing host
}

// ------------------------------ test rig ----------------------------------

std::string determine_line(const std::string& family, NodeId nodes,
                           std::uint64_t seed = 1, bool include_map = false) {
  JsonWriter w;
  return w.field("op", "determine")
      .field("family", family)
      .field("nodes", static_cast<std::uint64_t>(nodes))
      .field("seed", seed)
      .field("include_map", include_map)
      .str();
}

// One in-process daemon on 127.0.0.1:<free port>: serve() runs on a
// background thread, the fixture waits for the kernel-assigned port, and
// endpoint() is what clients dial.
class TcpDaemon {
 public:
  explicit TcpDaemon(ServiceOptions service = {}) {
    opt_.tcp = "127.0.0.1:0";
    opt_.service = std::move(service);
    opt_.quiet = true;
    opt_.stop = &stop_;
    server_ = std::make_unique<Server>(opt_);
    thread_ = std::thread([this] { server_->serve(log_); });
    for (int i = 0; i < 5000 && server_->tcp_port() == 0; ++i) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_NE(server_->tcp_port(), 0) << "listener never came up";
  }

  ~TcpDaemon() { stop(); }

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server_->tcp_port());
  }

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  void join() {  // for shutdown-op driven exits
    if (thread_.joinable()) thread_.join();
  }

 private:
  ServerOptions opt_;
  std::atomic<bool> stop_{false};
  std::ostringstream log_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

// ------------------- the Unix-socket suite, over TCP ----------------------

TEST(ServerTcp, EndToEndSessionCacheHitAndShutdown) {
  ServiceOptions sopt;
  sopt.workers = 2;
  TcpDaemon daemon(sopt);

  ClientChannel client(daemon.endpoint());
  client.send(determine_line("torus", 9));
  client.send(determine_line("torus", 9));
  client.send(R"({"op": "stats"})");
  const std::optional<std::string> r1 = client.recv();
  const std::optional<std::string> r2 = client.recv();
  const std::optional<std::string> r3 = client.recv();
  ASSERT_TRUE(r1 && r2 && r3);
  EXPECT_NE(r1->find("\"ok\": true"), std::string::npos);
  EXPECT_TRUE(r2->find("\"cache\": \"hit\"") != std::string::npos ||
              r2->find("\"cache\": \"coalesced\"") != std::string::npos)
      << *r2;
  EXPECT_NE(r3->find("\"executions\": 1"), std::string::npos) << *r3;

  client.send(R"({"op": "shutdown"})");
  const std::optional<std::string> r4 = client.recv();
  ASSERT_TRUE(r4);
  EXPECT_NE(r4->find("\"ok\": true"), std::string::npos);
  const std::string endpoint = daemon.endpoint();
  daemon.join();
  // The port is released on drain.
  EXPECT_THROW(ClientChannel reconnect(endpoint), Error);
}

TEST(ServerTcp, SurvivesClientVanishingBeforeItsResponse) {
  TcpDaemon daemon;
  {
    ClientChannel rude(daemon.endpoint());
    rude.send(determine_line("torus", 9));
    // Destructor closes the connection without reading the response (over
    // TCP this is an RST/FIN race the daemon must shrug off).
  }
  std::string second;
  for (int i = 0; i < 5000; ++i) {
    ClientChannel polite(daemon.endpoint());
    polite.send(determine_line("torus", 9));
    const std::optional<std::string> resp = polite.recv();
    ASSERT_TRUE(resp);
    second = *resp;
    if (second.find("\"cache\": \"hit\"") != std::string::npos) break;
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_NE(second.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(second.find("\"cache\": \"hit\""), std::string::npos);
}

TEST(ServerTcp, ExternalStopFlagDrainsWithoutShutdownRequest) {
  TcpDaemon daemon;
  std::this_thread::sleep_for(50ms);
  daemon.stop();  // returns within the poll interval: the flag is honoured
  SUCCEED();
}

// -------------------- transport equivalence (the contract) ----------------

TEST(ServerTcp, ResponsesByteIdenticalToUnixSocketForTheSameStream) {
  // One scripted session — misses, a hit, a verify-shaped error, a sweep,
  // stats, garbage, shutdown — sent once over each transport against a
  // fresh daemon. The response stream must match byte for byte: the
  // transport layer owns framing only, never content.
  const std::vector<std::string> script = {
      determine_line("torus", 9),
      determine_line("debruijn", 16),
      determine_line("torus", 9),  // hit
      R"({"op": "sweep", "families": "torus", "sizes": "9", "seeds": "1"})",
      R"({"op": "verify", "family": "torus", "nodes": 9})",  // missing map
      "not json at all",
      R"({"op": "stats", "id": "tail"})",
      R"({"op": "shutdown"})",
  };

  const auto run_session =
      [&](const std::string& endpoint) -> std::vector<std::string> {
    ClientChannel client(endpoint);
    std::vector<std::string> transcript;
    for (const std::string& line : script) {
      client.send(line);
      const std::optional<std::string> resp = client.recv();
      EXPECT_TRUE(resp.has_value()) << line;
      if (resp) transcript.push_back(*resp);
    }
    return transcript;
  };

  const std::string unix_path = ::testing::TempDir() + "dtopd_equiv.sock";
  if (unix_path.size() >= 100) GTEST_SKIP() << "TempDir too long for AF_UNIX";
  ::unlink(unix_path.c_str());
  std::vector<std::string> over_unix;
  {
    ServerOptions opt;
    opt.socket_path = unix_path;
    opt.quiet = true;
    Server server(opt);
    std::ostringstream log;
    std::thread daemon([&] { server.serve(log); });
    for (int i = 0; i < 5000; ++i) {
      try {
        ClientChannel probe(unix_path);
        break;
      } catch (const Error&) {
        std::this_thread::sleep_for(1ms);
      }
    }
    over_unix = run_session(unix_path);
    daemon.join();  // the script ends in a shutdown
  }

  std::vector<std::string> over_tcp;
  {
    TcpDaemon daemon;
    over_tcp = run_session(daemon.endpoint());
    daemon.join();
  }

  ASSERT_EQ(over_unix.size(), over_tcp.size());
  for (std::size_t i = 0; i < over_unix.size(); ++i) {
    EXPECT_EQ(over_unix[i], over_tcp[i]) << "response " << i;
  }
}

// ----------------------------- diagnostics --------------------------------

TEST(ServerTcp, PortAlreadyInUseIsAStructuredError) {
  TcpDaemon daemon;  // owns a live port
  ServerOptions opt;
  opt.tcp = daemon.endpoint();  // collide on purpose
  opt.quiet = true;
  Server second(opt);
  std::ostringstream log;
  try {
    second.serve(log);
    FAIL() << "serve() on a taken port must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("address already in use"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServerTcp, ConnectionRefusedNamesTheEndpoint) {
  // Grab a free port, release it, then dial it: guaranteed ECONNREFUSED.
  std::string endpoint;
  {
    TcpDaemon daemon;
    endpoint = daemon.endpoint();
  }
  try {
    ClientChannel client(endpoint);
    FAIL() << "connect to a dead port must throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "connection refused: is dtopd running at " + endpoint + "?");
  }

  // The Unix-path spelling of the same failure: a path with no socket.
  const std::string no_sock = ::testing::TempDir() + "no_daemon_here.sock";
  ::unlink(no_sock.c_str());
  try {
    ClientChannel client(no_sock);
    FAIL() << "connect to a missing socket must throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "connection refused: is dtopd running at " + no_sock + "?");
  }
}

// ------------------------ warm start from the store -----------------------

TEST(ServerTcp, RestartedDaemonAnswersFirstRepeatFromWarmCache) {
  const std::string store = ::testing::TempDir() + "warm_tcp.cache";
  ::unlink(store.c_str());
  std::ostringstream warn;

  std::string first;
  {
    ServiceOptions sopt;
    sopt.cache_store = store;
    sopt.warn = &warn;
    TcpDaemon daemon(sopt);
    ClientChannel client(daemon.endpoint());
    client.send(determine_line("torus", 9, 1, /*include_map=*/true));
    const std::optional<std::string> resp = client.recv();
    ASSERT_TRUE(resp);
    ASSERT_NE(resp->find("\"cache\": \"miss\""), std::string::npos);
    first = *resp;
  }  // daemon gone; the store file survives

  {
    ServiceOptions sopt;
    sopt.cache_store = store;
    sopt.warn = &warn;
    TcpDaemon daemon(sopt);
    ClientChannel client(daemon.endpoint());
    client.send(determine_line("torus", 9, 1, /*include_map=*/true));
    const std::optional<std::string> resp = client.recv();
    ASSERT_TRUE(resp);
    // The very first request after restart is a hit — and apart from the
    // cache field the response is byte-identical to the original miss.
    EXPECT_NE(resp->find("\"cache\": \"hit\""), std::string::npos) << *resp;
    std::string expected = first;
    const std::size_t at = expected.find("\"cache\": \"miss\"");
    ASSERT_NE(at, std::string::npos);
    expected.replace(at, std::string("\"cache\": \"miss\"").size(),
                     "\"cache\": \"hit\"");
    EXPECT_EQ(*resp, expected);
  }
  EXPECT_EQ(warn.str(), "");  // a healthy store never warns
  ::unlink(store.c_str());
}

}  // namespace
}  // namespace dtop::service
