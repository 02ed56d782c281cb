// The synchronous lockstep engine.
//
// Semantics (paper Section 1.1): per global clock tick every processor
// (1) reads the characters its in-ports received, (2) performs its state
// change, (3) broadcasts its outputs. We implement this as a BSP superstep
// with double-buffered wires: characters sent during tick t are readable
// exactly at tick t+1. Running the per-node updates on a thread pool does not
// change any observable behaviour — each node writes only its own out-wires —
// so the parallel engine is bit-identical to the sequential one (tested).
//
// The engine is an *active-set* simulator. The activation contract (the one
// place it is documented; docs/ARCHITECTURE.md and ROADMAP.md link here):
//
//   A node is stepped at tick t iff it received a character at t (some
//   in-wire carried a non-blank sent at t-1, or a test injected one) or it
//   declared itself non-idle at t-1 (idle() returned false after its step).
//
// Stepping an idle node on blank inputs must be a no-op (machine contract;
// property-tested per machine type), so skipping is invisible: traces,
// transcripts, and stats are identical to a dense sweep that steps every
// node every tick.
//
// Wire occupancy is a hierarchical bitmap (detail::WireBitmap): one bit per
// wire at level 0, one summary bit per 64-wire word at level 1, one per
// 64 l1-words at level 2. Staging a send is an idempotent OR: a plain one on
// unforked ticks, a relaxed atomic fetch_or on forked ticks, where pool
// workers stage into the same bitmap. The per-tick receiver scan walks only
// the set summary words, consuming 64 wires per load. Determinism at any
// thread count falls out of three facts:
// (a) the bitmap is an OR-accumulator, so the staged *set* is independent of
// worker interleaving; (b) each wire has exactly one source node, stepped by
// exactly one worker, so the fresh-vs-resend decision for a wire is made by
// a single thread; (c) the receiver sweep runs sequentially in ascending
// wire order after the tick barrier, so the next active set — and every
// trace event derived from it — is a pure function of the staged set.
//
// Memory layout: every piece of per-run state — machine array, the two
// wire-message buffers and their bitmaps, the flattened port->wire tables,
// active/pending sets, and the per-worker scratch — lives in one Arena in
// struct-of-arrays form. A tick walks contiguous arrays, and once capacities
// have warmed up (first few ticks), a steady-state tick performs zero heap
// allocations on the stepping thread; EngineStats::allocs makes that a
// checkable number. The arena can be caller-owned (runner workers and dtopd
// reuse one arena's high-water footprint across runs) or engine-owned when
// none is supplied. Pool workers are persistent: spawned once at engine
// construction, they first-touch their own scratch before the first tick
// and meet the stepping thread at a spin-then-park tick barrier. The engine
// does not place them on CPUs; wrap the process in `taskset` or a cpuset
// for placement.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "graph/port_graph.hpp"
#include "obs/engine_metrics.hpp"
#include "sim/machine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace_sink.hpp"
#include "support/alloc_hook.hpp"
#include "support/arena.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace dtop {

namespace detail {

// Hierarchical wire-occupancy bitmap. l0 bit w = wire w carries a staged
// character; l1 bit i = l0 word i is nonzero; l2 bit j = l1 word j is
// nonzero. l2 is walked linearly (one word per 256Ki wires), so sweeps and
// clears cost O(set words), not O(wire slots).
struct WireBitmap {
  std::uint64_t* l0 = nullptr;
  std::uint64_t* l1 = nullptr;
  std::uint64_t* l2 = nullptr;
  std::size_t l2_words = 0;
};

inline std::size_t bitmap_words(std::size_t bits) {
  return bits == 0 ? 1 : (bits + 63) / 64;
}

// ORs `bits` into *p and returns the old word: a relaxed atomic fetch_or
// when `shared` (pool workers stage into the same bitmap), a plain
// read-modify-write otherwise.
inline std::uint64_t or_word(std::uint64_t* p, std::uint64_t bits,
                             bool shared) {
  if (shared) return __atomic_fetch_or(p, bits, __ATOMIC_RELAXED);
  const std::uint64_t old = *p;
  *p = old | bits;
  return old;
}

// Stages wire w (idempotent OR), returning true iff the bit was clear —
// i.e. this is the wire's first send of the tick. With `shared` set (a
// forked tick) it is safe to call from pool workers concurrently: the
// bitmap is an OR-accumulator, and only the worker stepping w's unique
// source node ever touches w's bit, so the relaxed pre-load deciding
// "already staged" is race-free and the fresh/resend outcome is
// deterministic. Exactly one staging per word observes the 0 -> nonzero
// transition and publishes the summary bits. Without `shared` (an unforked
// tick, or between ticks) the ORs are plain: same bits, no lock prefix.
inline bool wire_stage(WireBitmap& b, WireId w, bool shared) {
  std::uint64_t* word = b.l0 + (w >> 6);
  const std::uint64_t bit = std::uint64_t{1} << (w & 63);
  if (__atomic_load_n(word, __ATOMIC_RELAXED) & bit) return false;
  if (or_word(word, bit, shared) == 0) {
    const std::size_t i0 = w >> 6;
    if (or_word(b.l1 + (i0 >> 6), std::uint64_t{1} << (i0 & 63), shared) ==
        0)
      or_word(b.l2 + (i0 >> 12), std::uint64_t{1} << ((i0 >> 6) & 63),
              shared);
  }
  return true;
}

// Plain read; valid whenever no concurrent staging targets this buffer
// (reads of the readable buffer during a tick, test introspection between
// ticks).
inline bool wire_test(const WireBitmap& b, WireId w) {
  return (b.l0[w >> 6] >> (w & 63)) & 1u;
}

// Zeroes every set word via the hierarchy: O(set words).
inline void bitmap_clear(WireBitmap& b) {
  for (std::size_t i2 = 0; i2 < b.l2_words; ++i2) {
    std::uint64_t w2 = b.l2[i2];
    if (!w2) continue;
    b.l2[i2] = 0;
    while (w2) {
      const std::size_t i1 = (i2 << 6) + std::countr_zero(w2);
      w2 &= w2 - 1;
      std::uint64_t w1 = b.l1[i1];
      b.l1[i1] = 0;
      while (w1) {
        const std::size_t i0 = (i1 << 6) + std::countr_zero(w1);
        w1 &= w1 - 1;
        b.l0[i0] = 0;
      }
    }
  }
}

// Calls fn(WireId) for every staged wire in ascending wire order,
// consuming 64 wires per l0 load and skipping empty regions via the
// summary levels. Returns the number of l0 words visited — the sweep's
// true cost — for the metrics layer; callers without one ignore it.
template <typename Fn>
inline std::size_t bitmap_for_each(const WireBitmap& b, Fn&& fn) {
  std::size_t words = 0;
  for (std::size_t i2 = 0; i2 < b.l2_words; ++i2) {
    std::uint64_t w2 = b.l2[i2];
    while (w2) {
      const std::size_t i1 = (i2 << 6) + std::countr_zero(w2);
      w2 &= w2 - 1;
      std::uint64_t w1 = b.l1[i1];
      while (w1) {
        const std::size_t i0 = (i1 << 6) + std::countr_zero(w1);
        w1 &= w1 - 1;
        ++words;
        std::uint64_t w0 = b.l0[i0];
        while (w0) {
          fn(static_cast<WireId>((i0 << 6) + std::countr_zero(w0)));
          w0 &= w0 - 1;
        }
      }
    }
  }
  return words;
}

}  // namespace detail

// Per-worker effect list, sized at engine construction so the hot path can
// append without bounds checks: a stepped node contributes at most one
// self-reschedule, so a chunk of k nodes writes <= k sched entries. The
// buffer carries one slot of slack because the branch-free self-reschedule
// stores unconditionally and only advances the length when the machine
// stayed non-idle. Cache-line aligned so workers never false-share; each
// worker first-touches its own buffer before the first tick.
struct alignas(64) EngineScratch {
  NodeId* sched = nullptr;
  std::size_t sched_len = 0;
  std::size_t sched_cap = 0;
  std::uint64_t msgs = 0;
  // This worker's step-loop duration for the current forked tick; written
  // only when a metrics hook is attached (the imbalance histogram).
  std::uint64_t step_ns = 0;
};

// Engine construction knobs beyond the graph/root/config triple.
struct EngineOptions {
  int num_threads = 1;

  // Caller-owned arena (see SyncEngine constructor comment); null = engine
  // owns a private one.
  Arena* arena = nullptr;

  // Fork threshold: a tick forks across the pool iff it has at least
  // 2 * parallel_grain active nodes, whatever the pool size (it is not a
  // per-worker minimum); 0 = kDefaultParallelGrain. Tests set it to force
  // the fork path.
  std::size_t parallel_grain = 0;

  // Spin budget of the tick barrier before parking; < 0 = pool default.
  // 0 forces the pure-condvar park path (used by the barrier stress test).
  int spin_iters = -1;

  // Observability hook (obs/engine_metrics.hpp): when set, the engine
  // records tick-phase wall times, sweep word counts, and per-worker
  // imbalance under `metrics_shard`. Strictly passive — traces, sweeps,
  // and stats are byte-identical with or without it, and recording stays
  // allocation-free (EngineStats::allocs still reads 0 in steady state).
  const obs::EngineMetrics* metrics = nullptr;
  // Registry shard the stepping thread records under; dtopd passes its
  // request-worker index so concurrent engines never share a cache line.
  int metrics_shard = 0;
};

// Per-tick view a machine gets of its node: read-only inputs and merge-style
// staged outputs. Lane writers obtain `out(p)` and fill their slot; the
// engine delivers the merged character next tick.
template <typename Message>
class StepContext {
 public:
  Tick now() const { return tick_; }

  // Character received on in-port p this tick, or nullptr when the port is
  // unconnected or carried a blank.
  const Message* input(Port p) const { return inputs_[p]; }

  // Staged output character for out-port p (created blank on first use).
  // Requires the port to be connected. The common resend path (wire already
  // carries a staged character this tick) is a single load and bit test
  // against the wire bitmap; a first send sets the bit plainly on unforked
  // ticks and with a relaxed atomic fetch_or on forked ones.
  Message& out(Port p) {
    const WireId w = out_wires_[p];
    DTOP_CHECK(w != kNoWire, "send on unconnected out-port");
    Message& slot = next_msgs_[w];
    if (detail::wire_stage(*next_stage_, w, shared_)) {
      ++scratch_->msgs;
      slot = Message{};  // blank-on-first-use; lanes merge into it
    }
    return slot;
  }

  bool out_connected(Port p) const { return out_wires_[p] != kNoWire; }

  // Engine wiring. One context serves a whole step range: the fields from
  // `next_msgs_` on are filled once per range, and per stepped node only
  // `inputs_[0..delta)` and `out_wires_` are rewritten. `out_wires_` points
  // at the node's row of the flattened port->wire table: kMaxDegree
  // entries, unconnected ports hold kNoWire. `shared_` is set on forked
  // ticks, where pool workers stage into the same bitmap concurrently.
  const Message* inputs_[kMaxDegree] = {};
  const WireId* out_wires_ = nullptr;
  Message* next_msgs_ = nullptr;
  detail::WireBitmap* next_stage_ = nullptr;
  EngineScratch* scratch_ = nullptr;
  Tick tick_ = 0;
  bool shared_ = false;
};

template <typename M>
class SyncEngine {
 public:
  using Message = typename M::Message;
  using Config = typename M::Config;

  // Default fork threshold: a tick is split across the pool iff it has at
  // least 2 * kDefaultParallelGrain active nodes, whatever the pool size
  // (EngineOptions::parallel_grain overrides). Whether forking pays at all
  // is ROADMAP item 2; perfbench `full_run_threads` measures the share of
  // forked ticks (`sim.forked_ticks_share`).
  static constexpr std::size_t kDefaultParallelGrain = 96;

  // Stack-array bound for gathering per-worker chunk timings into the
  // imbalance histogram on forked ticks. Pools larger than this (none in
  // practice) record the first kMaxEngineWorkers chunks only.
  static constexpr int kMaxEngineWorkers = 256;

  // When `opt.arena` is null the engine owns a private arena; a
  // caller-supplied arena must outlive the engine and may be reset (and
  // handed to a new engine) once this engine is destroyed — runner workers
  // and dtopd reuse one warm arena per worker thread this way.
  SyncEngine(const PortGraph& g, NodeId root, const Config& cfg,
             const EngineOptions& opt)
      : graph_(&g),
        root_(root),
        pool_(pool_options(opt)),
        grain_(opt.parallel_grain ? opt.parallel_grain
                                  : kDefaultParallelGrain),
        metrics_(opt.metrics),
        metrics_shard_(opt.metrics_shard),
        pool_park_mark_(pool_.park_stats()) {
    DTOP_REQUIRE(root < g.num_nodes(), "root out of range");
    g.validate();
    if (opt.arena) {
      arena_ = opt.arena;
    } else {
      owned_arena_.emplace();
      arena_ = &*owned_arena_;
    }

    const std::size_t n = g.num_nodes();
    const std::size_t wire_slots = g.wire_slots();
    const Port delta = g.delta();

    const std::size_t w0 = detail::bitmap_words(wire_slots);
    const std::size_t w1 = detail::bitmap_words(w0);
    const std::size_t w2 = detail::bitmap_words(w1);
    for (int b = 0; b < 2; ++b) {
      msgs_[b].bind(*arena_);
      msgs_[b].resize(wire_slots);
      detail::WireBitmap& bm = stage_[b];
      bm.l0 = arena_->allocate_array<std::uint64_t>(w0);
      bm.l1 = arena_->allocate_array<std::uint64_t>(w1);
      bm.l2 = arena_->allocate_array<std::uint64_t>(w2);
      bm.l2_words = w2;
      std::memset(bm.l0, 0, w0 * sizeof(std::uint64_t));
      std::memset(bm.l1, 0, w1 * sizeof(std::uint64_t));
      std::memset(bm.l2, 0, w2 * sizeof(std::uint64_t));
    }
    targets_.bind(*arena_);
    targets_.assign(wire_slots, kNoNode);
    for (WireId w : g.wire_ids()) targets_[w] = g.wire(w).to;

    // Flattened port->wire tables (row stride kMaxDegree, unconnected =
    // kNoWire). The hot path indexes these contiguous rows instead of the
    // graph's checked accessors; out-of-range ports still land on kNoWire
    // and fail loud in out().
    node_in_wires_.bind(*arena_);
    node_in_wires_.assign(n * kMaxDegree, kNoWire);
    node_out_wires_.bind(*arena_);
    node_out_wires_.assign(n * kMaxDegree, kNoWire);
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t row = std::size_t{v} * kMaxDegree;
      for (Port p = 0; p < delta; ++p) {
        node_in_wires_[row + p] = g.in_wire(v, p);
        node_out_wires_[row + p] = g.out_wire(v, p);
      }
    }

    machines_.bind(*arena_);
    machines_.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      MachineEnv env;
      env.is_root = (v == root);
      env.delta = delta;
      env.in_mask = g.in_mask(v);
      env.out_mask = g.out_mask(v);
      env.debug_id = v;
      machines_.emplace_back(env, cfg);
    }
    sched_stamp_.bind(*arena_);
    sched_stamp_.assign(n, -1);
    pending_.bind(*arena_);
    active_.bind(*arena_);

    const std::size_t nthreads = static_cast<std::size_t>(pool_.size());
    const std::size_t chunk = (n + nthreads - 1) / nthreads;
    scratch_ = arena_->allocate_array<EngineScratch>(nthreads);
    for (std::size_t t = 0; t < nthreads; ++t) {
      EngineScratch* s = ::new (&scratch_[t]) EngineScratch{};
      // Scratch 0 also serves the small-tick inline path, which steps the
      // whole active set on the calling thread.
      s->sched_cap = (t == 0 ? n : chunk) + 1;
      s->sched = arena_->allocate_array<NodeId>(s->sched_cap);
    }
    // First-touch: each worker initialises its own scratch buffer so the
    // pages land on the worker's node (workers were pinned — if requested —
    // at pool construction, before this fork). Pages a reused warm arena
    // already faulted in stay where they were.
    pool_.run([this](int t) {
      EngineScratch& s = scratch_[static_cast<std::size_t>(t)];
      std::memset(s.sched, 0, s.sched_cap * sizeof(NodeId));
    });

    alloc_mark_ = heap_alloc_count();
  }

  SyncEngine(const PortGraph& g, NodeId root, const Config& cfg,
             int num_threads = 1, Arena* arena = nullptr)
      : SyncEngine(g, root, cfg, EngineOptions{num_threads, arena}) {}

  ~SyncEngine() { publish_pool_parks(); }

  const PortGraph& graph() const { return *graph_; }
  NodeId root() const { return root_; }
  Tick now() const { return tick_; }
  const EngineStats& stats() const { return stats_; }

  // The arena this engine's state lives in (owned or caller-supplied).
  const Arena& arena() const { return *arena_; }

  // The effective fork threshold: ticks with >= 2 * parallel_grain() active
  // nodes fork.
  std::size_t parallel_grain() const { return grain_; }

  // The engine's worker pool (introspection: size, pinned).
  const ThreadPool& pool() const { return pool_; }

  M& machine(NodeId v) { return machines_[v]; }
  const M& machine(NodeId v) const { return machines_[v]; }

  // Requests that `v` be stepped on the next tick (used to deliver the
  // out-of-band initiation signal to the root).
  void schedule(NodeId v) {
    DTOP_REQUIRE(v < machines_.size(), "schedule: bad node");
    if (trace_) trace_->on_schedule(tick_, v);
    pending_.push_back(v);
  }

  // Attaches (or detaches, with nullptr) the trace sink. Sink callbacks run
  // sequentially on the stepping thread; see sim/trace_sink.hpp.
  void set_trace_sink(EngineTraceSink<Message>* sink) { trace_ = sink; }

  // True when a character is in flight on wire w (sent this tick, readable
  // next tick). Used by end-state pristineness audits.
  bool wire_pending(WireId w) const {
    return detail::wire_test(stage_[next_], w);
  }

  // The in-flight character on wire w, or nullptr when the wire is silent.
  // Test-only introspection (micro-trace tests check snake speeds).
  const Message* staged_message(WireId w) const {
    return detail::wire_test(stage_[next_], w) ? &msgs_[next_][w] : nullptr;
  }

  // Test-only fault injection: places (or overwrites) a character in flight
  // on wire w, delivered at the next tick. Used to verify the fail-loud
  // posture: a corrupted network must never yield a silently wrong map.
  // The receiver is activated by the next tick's bitmap sweep, exactly as
  // if a stepped node had staged the send.
  void inject(WireId w, const Message& m) {
    DTOP_REQUIRE(w < msgs_[next_].size() && targets_[w] != kNoNode,
                 "inject: bad wire");
    if (trace_)
      trace_->on_inject(tick_, w, m, detail::wire_test(stage_[next_], w));
    if (detail::wire_stage(stage_[next_], w, /*shared=*/false))
      ++stats_.messages;
    msgs_[next_][w] = m;
  }

  // One global clock tick.
  void step() {
    // Tick-phase timing is the one metrics cost on this path: a few
    // steady_clock reads when a hook is attached, nothing otherwise. The
    // recordings land in sharded relaxed atomics and never feed back into
    // control flow, so the tick's observable behaviour is hook-invariant.
    using clock = std::chrono::steady_clock;
    const bool timed = metrics_ != nullptr;
    clock::time_point t0, t1, t2;
    if (timed) t0 = clock::now();
    ++tick_;
    // Sent-last-tick becomes readable now.
    std::swap(cur_, next_);

    // Build the active set, deduplicated via per-node tick stamps:
    // carried-over schedules first (self-reschedules in last tick's step
    // order, then external schedule() calls in call order), then every
    // receiver of a staged wire, found by sweeping the readable bitmap in
    // ascending wire order — 64 wires per load, empty regions skipped via
    // the summary levels. The sweep is sequential and its input set is
    // interleaving-independent, so the active order is identical at any
    // thread count.
    active_.clear();
    Tick* stamp = sched_stamp_.data();
    for (NodeId v : pending_) {
      if (stamp[v] != tick_) {
        stamp[v] = tick_;
        active_.push_back(v);
      }
    }
    pending_.clear();
    std::size_t sweep_words = 0;
    {
      const NodeId* tgt = targets_.data();
      sweep_words = detail::bitmap_for_each(stage_[cur_], [&](WireId w) {
        const NodeId v = tgt[w];
        if (stamp[v] != tick_) {
          stamp[v] = tick_;
          active_.push_back(v);
        }
      });
    }
    if (timed) t1 = clock::now();

    const std::size_t count = active_.size();
    // Granularity control: a fork-join per tick only pays off when there is
    // enough node work to split. Small active sets (the common case outside
    // snake floods) run inline; the result is bit-identical either way.
    const int nthreads = count >= grain_ * 2 ? pool_.size() : 1;
    if (count > 0 && nthreads > 1) {
      pool_.run([&](int t) {
        EngineScratch& s = scratch_[static_cast<std::size_t>(t)];
        clock::time_point w0;
        if (timed) w0 = clock::now();
        step_range(count * static_cast<std::size_t>(t) /
                       static_cast<std::size_t>(nthreads),
                   count * static_cast<std::size_t>(t + 1) /
                       static_cast<std::size_t>(nthreads),
                   s, /*shared=*/true);
        if (timed) {
          s.step_ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  clock::now() - w0)
                  .count());
        }
      });
    } else if (count > 0) {
      step_range(0, count, scratch_[0], /*shared=*/false);
    }
    if (timed) t2 = clock::now();

    // Trace the tick's node activations before merging effects; active-set
    // order is itself a deterministic function of the previous merges.
    if (trace_) {
      for (std::size_t i = 0; i < count; ++i)
        trace_->on_step(tick_, active_[i]);
    }

    // Merge per-worker effects (deterministic: each worker stepped a
    // contiguous chunk of the active set, so concatenating the per-worker
    // self-reschedule lists in worker order reproduces the order a
    // sequential scan of `active_` would have produced).
    const std::size_t pool_size = static_cast<std::size_t>(pool_.size());
    for (std::size_t t = 0; t < pool_size; ++t) {
      EngineScratch& s = scratch_[t];
      pending_.append(s.sched, s.sched_len);
      s.sched_len = 0;
      stats_.messages += s.msgs;
      s.msgs = 0;
    }

    // Sends staged this tick, in ascending wire order (the staged set is
    // interleaving-independent, so this too is bit-identical at any thread
    // count).
    if (trace_) {
      const Message* staged = msgs_[next_].data();
      detail::bitmap_for_each(stage_[next_], [&](WireId w) {
        trace_->on_send(tick_, w, staged[w]);
      });
    }

    // The cur buffer has been fully consumed; clear its bitmap (O(set
    // words) via the hierarchy) for reuse as the next staging buffer.
    detail::bitmap_clear(stage_[cur_]);

    stats_.ticks = tick_;
    stats_.node_steps += count;
    stats_.max_active = std::max<std::uint64_t>(stats_.max_active, count);
    stats_.allocs = heap_alloc_count() - alloc_mark_;

    if (timed) {
      const auto ns = [](clock::time_point a, clock::time_point b) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count());
      };
      const bool forked = count > 0 && nthreads > 1;
      metrics_->on_tick(ns(t0, t1), ns(t1, t2), ns(t2, clock::now()), count,
                        sweep_words, forked, metrics_shard_);
      if (forked) {
        std::uint64_t chunk_ns[kMaxEngineWorkers];
        const int nw =
            nthreads < kMaxEngineWorkers ? nthreads : kMaxEngineWorkers;
        for (int t = 0; t < nw; ++t) {
          chunk_ns[t] = scratch_[static_cast<std::size_t>(t)].step_ns;
          scratch_[static_cast<std::size_t>(t)].step_ns = 0;
        }
        metrics_->on_fork(chunk_ns, nw, metrics_shard_);
      }
    }
  }

  // Runs until the root machine terminates or the budget is exhausted.
  RunStatus run(Tick max_ticks) {
    RunStatus status = RunStatus::kTickBudget;
    while (tick_ < max_ticks) {
      step();
      if (machines_[root_].terminated()) {
        status = RunStatus::kTerminated;
        break;
      }
    }
    stats_.peak_rss_kb = peak_rss_kb();
    publish_pool_parks();
    return status;
  }

  // Publishes the pool's park-path activity accumulated since the last
  // publication to the metrics hook (the pool counters are monotone, so
  // this is a delta and safe to call repeatedly). run() calls it per run;
  // the destructor flushes whatever drivers that loop step() directly —
  // run_gtd's injection loop — accumulated.
  void publish_pool_parks() {
    if (!metrics_) return;
    const ThreadPoolStats now = pool_.park_stats();
    metrics_->on_pool(now.worker_parks - pool_park_mark_.worker_parks,
                      now.caller_parks - pool_park_mark_.caller_parks,
                      metrics_shard_);
    pool_park_mark_ = now;
  }

 private:
  static ThreadPoolOptions pool_options(const EngineOptions& opt) {
    ThreadPoolOptions p;
    p.num_threads = opt.num_threads;
    if (opt.spin_iters >= 0) p.spin_iters = opt.spin_iters;
    return p;
  }

  // Steps active_[first, last) into scratch `s`. One StepContext serves
  // the whole range: its per-tick fields are filled once, and per node only
  // the inputs and the out-wire row are rewritten. `shared` = other pool
  // workers stage concurrently this tick (see detail::wire_stage). The
  // inline path and every forked worker run this one loop.
  void step_range(std::size_t first, std::size_t last, EngineScratch& s,
                  bool shared) {
    StepContext<Message> ctx;
    ctx.tick_ = tick_;
    ctx.next_msgs_ = msgs_[next_].data();
    ctx.next_stage_ = &stage_[next_];
    ctx.scratch_ = &s;
    ctx.shared_ = shared;
    const NodeId* act = active_.data();
    const WireId* in_wires = node_in_wires_.data();
    const WireId* out_wires = node_out_wires_.data();
    const Message* cur_msgs = msgs_[cur_].data();
    const detail::WireBitmap& cur_stage = stage_[cur_];
    const Port delta = graph_->delta();
    M* machines = machines_.data();
    for (std::size_t i = first; i < last; ++i) {
      const NodeId v = act[i];
      const std::size_t row = std::size_t{v} * kMaxDegree;
      for (Port p = 0; p < delta; ++p) {
        const WireId in_w = in_wires[row + p];
        ctx.inputs_[p] =
            (in_w != kNoWire && detail::wire_test(cur_stage, in_w))
                ? &cur_msgs[in_w]
                : nullptr;
      }
      ctx.out_wires_ = out_wires + row;
      M& m = machines[v];
      m.step(ctx);
      // Branch-free self-reschedule: store unconditionally, advance iff the
      // machine stayed non-idle.
      s.sched[s.sched_len] = v;
      s.sched_len += static_cast<std::size_t>(!m.idle());
    }
  }

  // Declared first so it is destroyed last: the ArenaVectors below destroy
  // their elements in storage the arena still owns.
  std::optional<Arena> owned_arena_;
  Arena* arena_ = nullptr;

  const PortGraph* graph_;
  NodeId root_;
  ThreadPool pool_;
  std::size_t grain_;
  ArenaVector<M> machines_;

  // Double-buffered wire state. Index cur_: readable this tick; next_:
  // staged for next tick.
  ArenaVector<Message> msgs_[2];
  detail::WireBitmap stage_[2];
  int cur_ = 0, next_ = 1;
  ArenaVector<NodeId> targets_;
  ArenaVector<WireId> node_in_wires_, node_out_wires_;

  ArenaVector<NodeId> pending_, active_;
  ArenaVector<Tick> sched_stamp_;
  EngineScratch* scratch_ = nullptr;

  Tick tick_ = 0;
  EngineStats stats_;
  std::uint64_t alloc_mark_ = 0;
  const obs::EngineMetrics* metrics_ = nullptr;
  int metrics_shard_ = 0;
  ThreadPoolStats pool_park_mark_;
  EngineTraceSink<Message>* trace_ = nullptr;
};

}  // namespace dtop
