// Endpoint addressing for dtopd: one string grammar covering both
// transports, shared by the server and the client channel so both resolve
// an address the same way.
//
//   "host:port"         TCP (no '/', trailing ":<digits>"): "127.0.0.1:7421"
//   anything else       AF_UNIX socket path: "/tmp/dtopd.sock", "./d.sock"
//
// The grammar is unambiguous in practice because AF_UNIX paths that matter
// contain a '/' (a bare relative name like "d.sock" has no ':' either).
#pragma once

#include <cstdint>
#include <string>

namespace dtop::service {

struct Endpoint {
  bool tcp = false;
  std::string host;         // TCP only ("127.0.0.1", "localhost", "::1")
  std::uint16_t port = 0;   // TCP only; 0 asks the kernel for a free port
  std::string path;         // AF_UNIX only
  std::string display;      // the original endpoint string, for messages
};

// Parses the endpoint grammar above. Throws Error on an empty string or a
// TCP port out of range; never throws for plain paths.
Endpoint parse_endpoint(const std::string& spec);

// Connects a blocking stream socket to the endpoint (TCP_NODELAY is set on
// TCP connections: the protocol is request/response lines, where Nagle
// delays are pure latency). Throws Error — with the user-facing
// "connection refused: is dtopd running at <addr>?" message when nothing
// listens there — and never returns a negative fd.
int connect_endpoint(const Endpoint& ep);

// Creates a listening TCP socket (SO_REUSEADDR; backlog 64) and reports the
// actually-bound port — meaningful when ep.port is 0 — through *bound_port.
// Throws Error on resolution failure or a port already in use. AF_UNIX
// listeners stay in server.cpp: their stale-socket-file protocol has no TCP
// analogue.
int listen_tcp(const Endpoint& ep, std::uint16_t* bound_port);

}  // namespace dtop::service
