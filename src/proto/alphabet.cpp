#include "proto/alphabet.hpp"

#include <sstream>
#include <string>

namespace dtop {
namespace {

std::string port_str(Port p) {
  if (p == kStarPort) return "*";
  if (p == kNoPort) return "-";
  return std::to_string(static_cast<int>(p));
}

}  // namespace

const char* to_cstr(GrowKind k) {
  switch (k) {
    case GrowKind::kIG: return "IG";
    case GrowKind::kOG: return "OG";
    case GrowKind::kBG: return "BG";
  }
  return "?";
}

const char* to_cstr(DieKind k) {
  switch (k) {
    case DieKind::kID: return "ID";
    case DieKind::kOD: return "OD";
    case DieKind::kBD: return "BD";
  }
  return "?";
}

const char* to_cstr(SnakePart p) {
  switch (p) {
    case SnakePart::kHead: return "H";
    case SnakePart::kBody: return "B";
    case SnakePart::kTail: return "T";
  }
  return "?";
}

bool Character::operator==(const Character& o) const {
  if (lanes != o.lanes) return false;
  for (int i = 0; i < kNumSnakeKinds; ++i) {
    if (has_grow(i) && !(grow_[i] == o.grow_[i])) return false;
    if (has_die(i) && !(die_[i] == o.die_[i])) return false;
  }
  return (!has_rloop() || rloop_ == o.rloop_) &&
         (!has_bloop() || bloop_ == o.bloop_) &&
         (!has_dfs() || dfs_ == o.dfs_);
}

std::string to_string(const SnakeChar& c) {
  std::ostringstream os;
  os << to_cstr(c.part);
  if (c.part != SnakePart::kTail)
    os << "(" << port_str(c.out) << "," << port_str(c.in) << ")";
  return os.str();
}

std::string to_string(const Character& c) {
  std::ostringstream os;
  bool any = false;
  for (int i = 0; i < kNumSnakeKinds; ++i) {
    if (c.has_grow(i)) {
      os << (any ? " " : "") << to_cstr(grow_kind(i)) << to_string(c.grow(i));
      any = true;
    }
  }
  for (int i = 0; i < kNumSnakeKinds; ++i) {
    if (c.has_die(i)) {
      os << (any ? " " : "") << to_cstr(die_kind(i)) << to_string(c.die(i));
      any = true;
    }
  }
  if (c.kill()) {
    os << (any ? " " : "") << "KILL";
    any = true;
  }
  if (c.bkill()) {
    os << (any ? " " : "") << "BKILL";
    any = true;
  }
  if (c.has_rloop()) {
    os << (any ? " " : "");
    switch (c.rloop().kind) {
      case RcaToken::Kind::kForward:
        os << "FWD(" << port_str(c.rloop().out) << ","
           << port_str(c.rloop().in) << ")";
        break;
      case RcaToken::Kind::kBack: os << "BACK"; break;
      case RcaToken::Kind::kUnmark: os << "UNMARK"; break;
    }
    any = true;
  }
  if (c.has_bloop()) {
    os << (any ? " " : "");
    switch (c.bloop().kind) {
      case BcaToken::Kind::kData:
        os << "DATA(" << static_cast<int>(c.bloop().payload) << ")";
        break;
      case BcaToken::Kind::kAck: os << "ACK"; break;
      case BcaToken::Kind::kBUnmark: os << "BUNMARK"; break;
    }
    any = true;
  }
  if (c.has_dfs()) {
    os << (any ? " " : "") << "DFS(" << port_str(c.dfs().last_out) << ","
       << port_str(c.dfs().last_in) << ")";
    any = true;
  }
  if (!any) os << "blank";
  return os.str();
}

}  // namespace dtop
