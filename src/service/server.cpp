#include "service/server.hpp"

#include <cerrno>
#include <cstring>
#include <ostream>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/endpoint.hpp"
#include "support/error.hpp"

namespace dtop::service {
namespace {

constexpr int kPollMs = 200;  // stop-flag latency bound

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw Error("socket path '" + path + "' is empty or too long (max " +
                std::to_string(sizeof(addr.sun_path) - 1) + " bytes)");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

// Blocking full write, client side. MSG_NOSIGNAL: a peer that hung up must
// surface as EPIPE here, not as a process-killing SIGPIPE (neither the
// daemon nor the client installs a SIGPIPE handler).
void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("socket write failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

Server::Server(const ServerOptions& opt) : opt_(opt), service_(opt.service) {}

int Server::listen_unix() {
  const sockaddr_un addr = make_addr(opt_.socket_path);

  // A leftover socket file from a crashed daemon must not block restart —
  // but a *live* daemon must, and a path that is not a socket at all (a
  // typo pointing at a real file) must never be unlinked.
  struct stat st = {};
  if (::lstat(opt_.socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      throw Error("'" + opt_.socket_path +
                  "' exists and is not a socket — refusing to replace it");
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    DTOP_CHECK(probe >= 0, "cannot create probe socket");
    const bool live = ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                                sizeof(addr)) == 0;
    ::close(probe);
    if (live) {
      throw Error("socket '" + opt_.socket_path +
                  "' already has a listening daemon");
    }
    ::unlink(opt_.socket_path.c_str());
  }

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DTOP_CHECK(listen_fd >= 0, "cannot create listen socket");
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd);
    throw Error("cannot bind '" + opt_.socket_path + "': " + why);
  }
  if (::listen(listen_fd, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd);
    ::unlink(opt_.socket_path.c_str());
    throw Error("cannot listen on '" + opt_.socket_path + "': " + why);
  }
  return listen_fd;
}

int Server::bind_tcp() {
  const Endpoint ep = parse_endpoint(opt_.tcp);
  if (!ep.tcp) {
    throw Error("--listen expects host:port, got '" + opt_.tcp + "'");
  }
  std::uint16_t port = ep.port;
  const int listen_fd = listen_tcp(ep, &port);
  tcp_port_.store(port, std::memory_order_release);
  return listen_fd;
}

int Server::serve(std::ostream& log) {
  DTOP_REQUIRE(opt_.socket_path.empty() != opt_.tcp.empty(),
               "server needs exactly one of a socket path or a TCP listen "
               "address");
  const bool tcp = !opt_.tcp.empty();
  const int listen_fd = tcp ? bind_tcp() : listen_unix();
  const std::string display =
      tcp ? parse_endpoint(opt_.tcp).host + ":" + std::to_string(tcp_port())
          : opt_.socket_path;

  if (!opt_.quiet) {
    log << "dtopd: listening on " << display << " (workers="
        << opt_.service.workers << ", cache=" << opt_.service.cache_capacity
        << (opt_.service.trace_dir.empty()
                ? std::string()
                : ", trace-dir=" + opt_.service.trace_dir)
        << (opt_.service.cache_store.empty()
                ? std::string()
                : ", cache-store=" + opt_.service.cache_store + " (" +
                      std::to_string(service_.warm_loaded()) + " warm)")
        << ")\n"
        << std::flush;
  }

  bool interrupted = false;
  for (;;) {
    if (service_.shutdown_requested()) break;
    if (opt_.stop && opt_.stop->load(std::memory_order_acquire)) {
      interrupted = true;
      break;
    }
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the flags
      break;
    }
    reap_connections(/*all=*/false);
    if (ready == 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    if (tcp) {
      // Request/response lines: Nagle coalescing is pure response latency.
      const int one = 1;
      ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(std::make_unique<Connection>());
    Connection* c = conns_.back().get();
    c->thread = std::thread([this, conn, c] {
      handle_connection(conn);
      c->done.store(true, std::memory_order_release);
    });
  }

  // Drain: no new connections, tell reader threads to wind down, execute
  // everything already accepted, then release the address.
  ::close(listen_fd);
  closing_.store(true, std::memory_order_release);
  reap_connections(/*all=*/true);
  service_.stop();
  if (!tcp) ::unlink(opt_.socket_path.c_str());
  if (!opt_.quiet) {
    const CacheStats c = service_.cache_stats();
    log << "dtopd: " << (interrupted ? "interrupted" : "shutdown")
        << ", drained (cache: " << c.hits << " hits, " << c.misses
        << " misses, " << c.evictions << " evictions)\n"
        << std::flush;
  }
  return 0;
}

bool Server::write_response(int fd, const std::string& line) {
  // The line and its terminator go out as one gather write: no copy of the
  // response to append "\n". A send that fits the socket buffer (every
  // response of a reading peer, in practice) costs no poll.
  static const char kNewline = '\n';
  const std::size_t total = line.size() + 1;
  std::size_t off = 0;
  while (off < total) {
    iovec iov[2];
    int n_iov = 0;
    if (off < line.size()) {
      iov[n_iov++] = {const_cast<char*>(line.data()) + off,
                      line.size() - off};
    }
    iov[n_iov++] = {const_cast<char*>(&kNewline), 1};
    msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(n_iov);
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return false;  // EPIPE and friends: the peer is gone
    }
    // The send buffer is full: wait until the peer reads.
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0 && errno != EINTR) return false;
    // A connected peer that stopped reading keeps the buffer full; the
    // drain path must still be able to exit, so the write is abandoned
    // (truncating that client's stream) once closing_ is raised.
    if (ready == 0 && closing_.load(std::memory_order_acquire)) return false;
  }
  return true;
}

void Server::reap_connections(bool all) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (all || (*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::handle_connection(int fd) {
  std::string buf;
  std::vector<std::uint64_t> order;
  std::uint64_t last = 0;  // this connection's latest ticket
  bool write_ok = true;
  for (;;) {
    if (!write_ok || closing_.load(std::memory_order_acquire)) break;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // client closed
    buf.append(chunk, static_cast<std::size_t>(n));

    // Submit every complete line first (a pipelining client's identical
    // requests are then genuinely in flight together), then write the
    // responses back in request order. Each line follows the previous one
    // into the result cache, so the earlier of two duplicates is the miss.
    order.clear();
    std::size_t start = 0;
    for (std::size_t nl = buf.find('\n', start); nl != std::string::npos;
         nl = buf.find('\n', start)) {
      std::string line = buf.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      last = service_.submit(std::move(line), last);
      order.push_back(last);
    }
    buf.erase(0, start);
    for (const std::uint64_t ticket : order) {
      // Every submitted ticket must be waited on even after the peer went
      // away, or its future (and response string) would sit in the Service
      // for the daemon's lifetime. A failed write (EPIPE: client gone
      // mid-response; or drain raised against a non-reading peer) just
      // stops further writes; the daemon stays up.
      const std::string response = service_.wait(ticket);
      if (!write_ok) continue;
      write_ok = write_response(fd, response);
    }
  }
  ::close(fd);
}

ClientChannel::ClientChannel(const std::string& endpoint) {
  fd_ = connect_endpoint(parse_endpoint(endpoint));
}

ClientChannel::~ClientChannel() {
  if (fd_ >= 0) ::close(fd_);
}

void ClientChannel::send(const std::string& line) {
  write_all(fd_, line + "\n");
}

std::optional<std::string> ClientChannel::recv() {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("socket read failed: ") + std::strerror(errno));
    }
    if (n == 0) return std::nullopt;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace dtop::service
