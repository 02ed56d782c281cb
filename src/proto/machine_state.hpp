// The complete per-processor state of the GTD protocol machine.
//
// This struct is the *finite state* of the paper's finite-state automaton:
// a trivially-copyable POD of constant size (static_assert below). Nothing
// in it scales with the network — queues have fixed capacity, port fields
// are bounded by kMaxDegree, and phase fields are small enums. The only
// network constant baked in is the degree bound delta.
#pragma once

#include <cstdint>

#include "proto/alphabet.hpp"
#include "support/fixed_vector.hpp"

namespace dtop {

// Growing-snake marks (Section 2.3.2): "IG-visited" / "IG-parent" etc.
// parent == kNoPort marks the snake's creator (it has no parent in-port).
struct GrowMarks {
  bool visited = false;
  Port parent = kNoPort;
};

// Marked-loop state (Section 2.4): predecessor in-ports #1/#2 and successor
// out-ports #1/#2, plus the alternation bit for processors that appear twice
// on the loop ("initially accept ... through predecessor in-port #1 ... then
// ... #2 ... then #1 again").
struct LoopMarks {
  bool has1 = false, has2 = false;
  bool expect2 = false;
  Port pred1 = kNoPort, succ1 = kNoPort;
  Port pred2 = kNoPort, succ2 = kNoPort;

  void clear_slot1() {
    has1 = false;
    pred1 = succ1 = kNoPort;
    expect2 = false;
  }
  void clear_slot2() {
    has2 = false;
    pred2 = succ2 = kNoPort;
    expect2 = false;
  }
  bool any() const { return has1 || has2; }
};

// BCA loop marks. The BCA loop is simple (canonical path B -> A plus the
// reversed edge), so one pred/succ pair suffices. `target` is set by the
// head-then-tail pattern of the BD snake: the processor that consumes a
// dying head immediately followed by the tail is the last processor on the
// path, i.e. processor A. The delivery stash holds the DATA payload until
// the BUNMARK pass (DESIGN.md section 3d).
struct BcaMarks {
  bool has = false;
  bool target = false;
  Port pred = kNoPort, succ = kNoPort;
  bool delivery_pending = false;
  std::uint8_t delivery_payload = 0;
  Port delivery_out = kNoPort;

  void clear() { *this = BcaMarks{}; }
};

// Per-dying-kind stream position at a marked processor: expecting the head,
// about to promote the next body character to head, or passing through.
struct DieStream {
  enum class Phase : std::uint8_t { kNone, kAwaitPromote, kPassThrough };
  Phase phase = Phase::kNone;
  Port pred = kNoPort;  // in-port the stream arrives through (for asserts)
};

// A character waiting out its speed-induced residence before emission.
enum class SnakeLane : std::uint8_t { kIG, kOG, kBG, kID, kOD, kBD };
enum class Route : std::uint8_t {
  kBroadcastSame,     // same character through every connected out-port
  kBroadcastPerPort,  // per out-port i, the character with out := i
  kPort,              // a single designated out-port
};
struct PendingSnake {
  SnakeLane lane{};
  SnakeChar ch{};
  Route route{};
  Port port = kNoPort;
  std::uint8_t due = 0;  // emit during the tick GtdState::clock equals this
};

// Lane helpers, inline so write_snake's lane dispatch folds at compile time.
inline bool is_grow_lane(SnakeLane lane) {
  return lane == SnakeLane::kIG || lane == SnakeLane::kOG ||
         lane == SnakeLane::kBG;
}

inline GrowKind grow_of(SnakeLane lane) {
  DTOP_CHECK(is_grow_lane(lane), "not a grow lane");
  return static_cast<GrowKind>(lane);
}

inline DieKind die_of(SnakeLane lane) {
  DTOP_CHECK(!is_grow_lane(lane), "not a die lane");
  return static_cast<DieKind>(static_cast<int>(lane) -
                              static_cast<int>(SnakeLane::kID));
}

inline SnakeLane lane_of(GrowKind k) { return static_cast<SnakeLane>(k); }

inline SnakeLane lane_of(DieKind k) {
  return static_cast<SnakeLane>(static_cast<int>(SnakeLane::kID) +
                                static_cast<int>(k));
}

// Pending single-slot emissions.
struct PendingRcaToken {
  bool present = false;
  RcaToken tok{};
  Port port = kNoPort;
  std::uint8_t delay = 0;
};
struct PendingBcaToken {
  bool present = false;
  BcaToken tok{};
  Port port = kNoPort;
  std::uint8_t delay = 0;
};
struct PendingDfs {
  bool present = false;
  DfsToken tok{};
  Port port = kNoPort;
  std::uint8_t delay = 0;
};

// Stream converter: re-emits an incoming snake stream on another lane.
// Instances: the root's IG->OG (broadcast + append-at-tail), the RCA
// initiator's OG->ID, the root's ID->OD, the BCA initiator's BG->BD.
struct StreamConverter {
  bool active = false;
  bool from_grow = false;     // consumes grow[src] vs die[src]
  std::uint8_t src = 0;       // GrowKind/DieKind index
  SnakeLane out_lane{};
  Port in_port = kNoPort;     // stream arrives through this in-port
  Port out_port = kNoPort;    // kNoPort => broadcast (root IG->OG only)
  bool promote_next = false;  // next body character becomes the new head
  bool append_at_tail = false;
};

// RCA initiator phases (Section 4.2.1 steps 1-5, from processor A's side).
enum class RcaPhase : std::uint8_t {
  kIdle,
  kWaitOg,      // step 1-2: IG snakes released, awaiting first OG head
  kWaitOdt,     // step 3: OG->ID conversion started, awaiting the ODT tail
  kWaitToken,   // step 4: KILL + FORWARD/BACK released, token circling
  kWaitUnmark,  // step 5: UNMARK circling
};

// Root-side RCA phases. kOpen is the only state in which a new IG head is
// accepted ("the root closes itself off to all other IG-snakes").
enum class RootPhase : std::uint8_t {
  kOpen,
  kConvertGrow,   // streaming IG -> OG
  kAwaitDying,    // OG released, awaiting the ID head
  kConvertDying,  // streaming ID -> OD
  kAwaitUnmark,   // loop marked; reopen on UNMARK
};

// BCA initiator phases (processor B).
enum class BcaPhase : std::uint8_t {
  kIdle,
  kWaitLoopback,  // BG snakes flooding; awaiting the BG head via req_in
  kConverting,    // streaming BG -> BD down the loop
  kWaitMarkDone,  // BD released; awaiting the BDT back via req_in
  kWaitAck,       // BKILL + DATA released
  kWaitBUnmark,   // BUNMARK circling
};

// DFS layer (Section 3).
enum class DfsPhase : std::uint8_t {
  kIdle,          // not holding the DFS token
  kInRcaForward,  // running the FORWARD RCA triggered by a token arrival
  kInRcaBack,     // running the BACK RCA after a token returned via BCA
  kWaitReturn,    // token sent down an out-port; awaiting its return
  kInBcaReturn,   // returning the token backwards via the BCA
  kDone,          // root only: terminal state
};
enum class DfsAfter : std::uint8_t { kExplore, kReturn };

struct DfsState {
  bool started = false;  // root only: initiation happened
  bool visited = false;
  Port parent = kNoPort;
  std::uint8_t finished = 0;  // bitmask of finished out-ports
  DfsPhase phase = DfsPhase::kIdle;
  DfsAfter after_rca = DfsAfter::kExplore;
  Port return_port = kNoPort;        // in-port to BCA-return through
  Port pending_back_port = kNoPort;  // out-port whose return triggered kInRcaBack
  DfsPhase resume_phase = DfsPhase::kIdle;  // phase to restore after a
                                            // visited-reentry interlude
};

struct GtdState {
  GrowMarks grow[kNumSnakeKinds];
  DieStream die_stream[kNumSnakeKinds];
  LoopMarks loop;
  BcaMarks bca_marks;
  StreamConverter conv_grow;  // consumes a growing stream
  StreamConverter conv_die;   // consumes a dying stream

  FixedVector<PendingSnake, 24> outq;
  // Emission clock, mod 256: advances once per emission pass. A machine with
  // anything queued is stepped every tick, so `due - clock` is an entry's
  // remaining delay and queued entries are never rewritten to age them.
  std::uint8_t clock = 0;
  bool kill_out = false;
  bool bkill_out = false;
  PendingRcaToken rtok;
  PendingBcaToken btok;
  PendingDfs dfs_out;

  // RCA initiator (processor A).
  RcaPhase rca_phase = RcaPhase::kIdle;
  bool og_closed = false;
  RcaToken rca_token{};

  // Root responder.
  RootPhase root_phase = RootPhase::kOpen;

  // BCA initiator (processor B).
  BcaPhase bca_phase = BcaPhase::kIdle;
  Port bca_req_in = kNoPort;
  std::uint8_t bca_payload = 0;

  DfsState dfs;
  bool terminated = false;
};

static_assert(std::is_trivially_copyable_v<GtdState>,
              "protocol state must be a constant-size POD (finite-state)");

const char* to_cstr(RcaPhase p);
const char* to_cstr(RootPhase p);
const char* to_cstr(BcaPhase p);
const char* to_cstr(DfsPhase p);

// One-line summary of the non-quiescent parts of a machine's state; the
// debugging companion to the wire trace.
std::string to_string(const GtdState& st);

}  // namespace dtop
