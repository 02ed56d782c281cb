// The protocol's wire alphabet.
//
// A character transmitted on a wire during one tick is a *product* of
// independent lanes, one per construct family (paper Section 2.3.1: "snakes
// of different types do not interact ... distinguished by their alphabets").
// Every lane is constant-size, so the whole character is constant-size — a
// requirement of the finite-state model.
//
// Lanes:
//   grow[IG|OG|BG]   growing-snake characters (Section 2.3.2). IG searches
//                    for the root, OG returns from the root, BG is the
//                    growing snake of our BCA reconstruction.
//   die[ID|OD|BD]    dying-snake characters (Section 2.3.3); BD marks the
//                    BCA loop.
//   kill / bkill     speed-3 cleanup floods (RCA step 4 / BCA cleanup).
//   rloop            RCA loop tokens: FORWARD(i,j), BACK, UNMARK.
//   bloop            BCA loop tokens: DATA(m), ACK, BUNMARK.
//   dfs              the DFS token: (last out-port, last in-port).
//
// Which lanes a character carries is one 11-bit presence mask,
// `Character::lanes` (bits below). The mask is the whole truth: a lane's
// field is meaningful only while its bit is set, `blank()` is one compare,
// equality and the trace codec read present lanes only, and the machine
// ORs its inputs' masks once per tick to call only the lane handlers with
// work (gtd_machine.cpp).
#pragma once

#include <cstdint>
#include <type_traits>

#include "graph/port_graph.hpp"
#include "sim/machine.hpp"

namespace dtop {

// The '*' placeholder of the paper: a snake character emitted with an
// unresolved in-port label; the receiving processor replaces it with the
// number of the in-port it arrived through. (kNoPort lives in the graph
// layer.)
inline constexpr Port kStarPort = 0xFE;

enum class GrowKind : std::uint8_t { kIG = 0, kOG = 1, kBG = 2 };
enum class DieKind : std::uint8_t { kID = 0, kOD = 1, kBD = 2 };
inline constexpr int kNumSnakeKinds = 3;

enum class SnakePart : std::uint8_t { kHead, kBody, kTail };

// One snake character. Head/body characters encode one edge of a path as the
// pair (out-port at the edge's tail processor, in-port at its head
// processor); tail characters carry no labels.
struct SnakeChar {
  SnakePart part = SnakePart::kBody;
  Port out = kNoPort;
  Port in = kNoPort;

  bool operator==(const SnakeChar&) const = default;
};

// RCA loop tokens (paper step 4/5). FORWARD carries the (out-port, in-port)
// pair identifying the DFS edge just traversed; there are delta^2 possible
// FORWARD tokens, as in the paper.
struct RcaToken {
  enum class Kind : std::uint8_t { kForward, kBack, kUnmark };
  Kind kind = Kind::kBack;
  Port out = kNoPort;
  Port in = kNoPort;

  bool operator==(const RcaToken&) const = default;
};

// BCA loop tokens (DESIGN.md section 3a). DATA carries the constant-size
// message being sent backwards; the target relabels it ACK; BUNMARK unmarks
// the loop.
struct BcaToken {
  enum class Kind : std::uint8_t { kData, kAck, kBUnmark };
  Kind kind = Kind::kData;
  std::uint8_t payload = 0;

  bool operator==(const BcaToken&) const = default;
};

// The DFS token: "the same basic structure as a snake character with two
// entries where in-port and out-port labels can be stored" (Section 3).
struct DfsToken {
  Port last_out = kNoPort;
  Port last_in = kStarPort;

  bool operator==(const DfsToken&) const = default;
};

// Presence bits of Character::lanes, low to high. The DTR character codec
// writes the mask verbatim as its lane bitmap (docs/TRACE_FORMAT.md), so
// these values are part of the trace format.
inline constexpr std::uint16_t kLaneGrow0 = 1u << 0;  // grow(0..2): bits 0..2
inline constexpr std::uint16_t kLaneDie0 = 1u << 3;   // die(0..2): bits 3..5
inline constexpr std::uint16_t kLaneKill = 1u << 6;
inline constexpr std::uint16_t kLaneBkill = 1u << 7;
inline constexpr std::uint16_t kLaneRloop = 1u << 8;
inline constexpr std::uint16_t kLaneBloop = 1u << 9;
inline constexpr std::uint16_t kLaneDfs = 1u << 10;
inline constexpr int kNumLaneBits = 11;
inline constexpr std::uint16_t kLaneGrowAll = 7u * kLaneGrow0;
inline constexpr std::uint16_t kLaneDieAll = 7u * kLaneDie0;

class Character {
 public:
  // Presence mask over the lanes above. Written by the setters; a lane's
  // field is read only while its bit is set.
  std::uint16_t lanes = 0;

  bool blank() const { return lanes == 0; }

  bool has_grow(int i) const { return lanes & (kLaneGrow0 << i); }
  const SnakeChar& grow(int i) const { return grow_[i]; }
  void set_grow(int i, const SnakeChar& c) {
    grow_[i] = c;
    lanes |= static_cast<std::uint16_t>(kLaneGrow0 << i);
  }

  bool has_die(int i) const { return lanes & (kLaneDie0 << i); }
  const SnakeChar& die(int i) const { return die_[i]; }
  void set_die(int i, const SnakeChar& c) {
    die_[i] = c;
    lanes |= static_cast<std::uint16_t>(kLaneDie0 << i);
  }

  bool kill() const { return lanes & kLaneKill; }
  void set_kill(bool on) { set_flag(kLaneKill, on); }
  bool bkill() const { return lanes & kLaneBkill; }
  void set_bkill(bool on) { set_flag(kLaneBkill, on); }

  bool has_rloop() const { return lanes & kLaneRloop; }
  const RcaToken& rloop() const { return rloop_; }
  void set_rloop(const RcaToken& t) {
    rloop_ = t;
    lanes |= kLaneRloop;
  }

  bool has_bloop() const { return lanes & kLaneBloop; }
  const BcaToken& bloop() const { return bloop_; }
  void set_bloop(const BcaToken& t) {
    bloop_ = t;
    lanes |= kLaneBloop;
  }

  bool has_dfs() const { return lanes & kLaneDfs; }
  const DfsToken& dfs() const { return dfs_; }
  void set_dfs(const DfsToken& t) {
    dfs_ = t;
    lanes |= kLaneDfs;
  }

  // Equal masks and equal present lanes; bytes of absent lanes are ignored.
  bool operator==(const Character& o) const;

 private:
  void set_flag(std::uint16_t bit, bool on) {
    lanes = static_cast<std::uint16_t>(on ? lanes | bit : lanes & ~bit);
  }

  // Absent lanes hold zero bytes, so a blank character is all zeros and
  // the engine's blank-on-first-use `Message{}` is a plain zero store.
  static constexpr SnakeChar kZeroSnake{SnakePart::kHead, 0, 0};
  SnakeChar grow_[kNumSnakeKinds] = {kZeroSnake, kZeroSnake, kZeroSnake};
  SnakeChar die_[kNumSnakeKinds] = {kZeroSnake, kZeroSnake, kZeroSnake};
  RcaToken rloop_{RcaToken::Kind::kForward, 0, 0};
  BcaToken bloop_{BcaToken::Kind::kData, 0};
  DfsToken dfs_{0, 0};
};

static_assert(std::is_trivially_copyable_v<Character>,
              "wire characters must be constant-size PODs");
static_assert(sizeof(Character) <= 28,
              "a blank-on-first-use store is one 28-byte write");

// Speed configuration (paper Section 2.1). A construct read at tick t is
// re-emitted during tick t+delay; the hop latency is therefore delay+1
// ticks. Speed-1 constructs (snakes; FORWARD/BACK/DATA/ACK loop tokens) use
// delay 2; speed-3 constructs (KILL/BKILL/UNMARK/BUNMARK) use delay 0, so
// they travel three times faster. The delays are configurable only so the
// E9 ablation can demonstrate that the 3:1 ratio is what makes the KILL
// cleanup of Lemma 4.2 sound.
struct ProtocolConfig {
  int snake_delay = 2;
  int loop_delay = 2;
  int token_delay = 0;

  bool operator==(const ProtocolConfig&) const = default;
};

inline GrowKind grow_kind(int i) { return static_cast<GrowKind>(i); }
inline DieKind die_kind(int i) { return static_cast<DieKind>(i); }
inline int index_of(GrowKind k) { return static_cast<int>(k); }
inline int index_of(DieKind k) { return static_cast<int>(k); }

const char* to_cstr(GrowKind k);
const char* to_cstr(DieKind k);
const char* to_cstr(SnakePart p);
std::string to_string(const SnakeChar& c);
std::string to_string(const Character& c);

}  // namespace dtop
