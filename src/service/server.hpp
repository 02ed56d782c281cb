// dtopd's transport: a line-delimited JSON protocol over a stream socket —
// a Unix-domain path or a TCP host:port (service/endpoint.hpp grammar) —
// in front of the transport-free Service.
//
// One thread accepts connections (poll with a short timeout so stop flags
// are honoured promptly); each connection gets a reader thread that parses
// complete lines, submits them to the Service — *batched*, so a pipelining
// client genuinely exercises the queue and in-flight dedup — and writes the
// responses back in request order. A determine that is a completed cache
// hit is answered inside submit(), on this reader thread. Stopping is always a drain: requests
// already accepted are executed before serve() returns, whether the trigger
// was a shutdown request or SIGINT/SIGTERM via ServerOptions::stop.
//
// The transport never touches a response byte: both listeners feed the
// same connection handler over the same Service, so a request stream
// replayed over TCP is byte-identical to its Unix-socket transcript
// (tests/test_tcp.cpp asserts exactly this).
#pragma once

#include <atomic>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "service/service.hpp"

namespace dtop::service {

struct ServerOptions {
  // Exactly one of the two listeners:
  std::string socket_path;  // AF_UNIX path (sun_path limit ~107 bytes)
  std::string tcp;          // TCP "host:port" ("127.0.0.1:0" = free port)
  ServiceOptions service;
  // External stop flag (typically SignalGuard::flag()); polled every accept
  // round. nullptr = only a shutdown request stops the server.
  const std::atomic<bool>* stop = nullptr;
  bool quiet = false;  // suppress lifecycle lines on the log stream
};

class Server {
 public:
  explicit Server(const ServerOptions& opt);

  // Binds the socket and serves until a shutdown request or *stop. Returns
  // 0 after a clean drain; throws Error when the socket cannot be bound
  // (path too long, address or port in use by a live daemon, ...). A stale
  // Unix socket file with no listener behind it is silently replaced.
  int serve(std::ostream& log);

  Service& service() { return service_; }

  // The TCP port actually bound, once listening (0 before, and always 0 for
  // a Unix listener). Tests bind "127.0.0.1:0" and poll this to learn the
  // kernel-assigned port.
  std::uint16_t tcp_port() const {
    return tcp_port_.load(std::memory_order_acquire);
  }

 private:
  // One reader thread per live connection; `done` lets the accept loop
  // reap finished connections as it goes, so a long-running daemon never
  // accumulates unjoined threads.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  // Binds the configured listener; returns the listening fd. Factored per
  // transport: the Unix path has the stale-socket-file protocol, the TCP
  // path resolves/binds/learns its port.
  int listen_unix();
  int bind_tcp();

  void handle_connection(int fd);
  void reap_connections(bool all);
  // Writes line + '\n', polling for writability only when the send buffer
  // is full, so a peer that stopped reading can never wedge the drain
  // path: returns false on a dead peer or when closing_ is raised
  // mid-write.
  bool write_response(int fd, const std::string& line);

  ServerOptions opt_;
  Service service_;
  std::atomic<bool> closing_{false};  // tells connection threads to wind down
  std::atomic<std::uint16_t> tcp_port_{0};

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;
};

// Client-side helpers (used by `dtopctl client` and the tests): a blocking
// line channel over either transport.
class ClientChannel {
 public:
  // Connects to a dtopd endpoint — an AF_UNIX path or "host:port"
  // (service/endpoint.hpp grammar). Throws Error, with a
  // "connection refused: is dtopd running at <addr>?" message, when
  // nothing listens there.
  explicit ClientChannel(const std::string& endpoint);
  ~ClientChannel();

  ClientChannel(const ClientChannel&) = delete;
  ClientChannel& operator=(const ClientChannel&) = delete;

  void send(const std::string& line);  // writes line + '\n'
  // One response line (without the '\n'); nullopt on EOF.
  std::optional<std::string> recv();

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace dtop::service
