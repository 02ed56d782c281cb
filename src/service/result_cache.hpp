// The dtopd result cache: a memoizing LRU keyed on the *rooted canonical
// form* of the network.
//
// Goldstein's protocol is a pure function of (port-labelled network, root,
// protocol config) — and, since anonymous processors make node ids a
// simulator artefact, of the network's canonical form rather than its
// concrete labelling. The cache key is therefore the canonical-form hash
// from src/graph/canonical.hpp (which already folds in the root: the form
// is the graph relabelled by canonical root paths) plus the engine-config
// label. Two requests for relabelled — even differently-rooted but
// rooted-isomorphic — instances of the same network hit the same entry and
// are answered without a second protocol run.
//
// Only *successful* determinations are cached (a terminated, verified run's
// map and model-time stats are independent of the tick budget, so the
// budget is deliberately absent from the key). Failures propagate to the
// caller and are recomputed on retry.
//
// get_or_compute additionally coalesces in-flight duplicates: while one
// thread computes a key, later callers of the same key block on the
// in-flight entry and share its result (or its exception) instead of
// launching a second protocol run. Hit/miss/coalesce/eviction counters are
// exposed for the `stats` request and asserted by tests/test_service.cpp.
//
// Entries are immutable once stored and handed out as shared pointers, so a
// hit costs a reference count, not a copy of the map text; an entry evicted
// while a caller still writes its response stays alive until that caller
// lets go of it.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <unordered_map>

#include "graph/port_graph.hpp"
#include "sim/machine.hpp"

namespace dtop::service {

struct CacheKey {
  std::uint64_t graph_hash = 0;  // rooted canonical-form hash (graph + root)
  std::string config;            // engine-config label ("ratio3", ...)

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    std::size_t h = std::hash<std::uint64_t>{}(k.graph_hash);
    h ^= std::hash<std::string>{}(k.config) + 0x9e3779b97f4a7c15ull +
         (h << 6) + (h >> 2);
    return h;
  }
};

// A completed determination, as stored and replayed by the cache. The map
// travels in its dtop-map v1 text form: responses embed it verbatim, so a
// cache hit is byte-identical to the miss that filled the entry.
struct CachedMap {
  std::string map_text;
  std::string label;  // family-instance label or "graph"
  NodeId n = 0;
  std::uint32_t d = 0;      // directed diameter
  std::uint32_t e = 0;      // wires
  Tick ticks = 0;
  std::uint64_t messages = 0;
  std::uint64_t node_steps = 0;
};

struct CacheStats {
  std::uint64_t hits = 0;        // answered from a completed entry
  std::uint64_t misses = 0;      // triggered a protocol run
  std::uint64_t coalesced = 0;   // joined an in-flight duplicate
  std::uint64_t inserts = 0;     // completed entries stored
  std::uint64_t evictions = 0;   // LRU entries dropped at capacity
  std::uint64_t executions = 0;  // compute() invocations (== misses)
  std::size_t size = 0;
  std::size_t capacity = 0;
};

class ResultCache {
 public:
  // Capacity is in entries and must be >= 1.
  explicit ResultCache(std::size_t capacity);

  // Memoizing lookup with in-flight coalescing. `outcome`, when non-null,
  // receives "hit", "miss", or "coalesced". compute() runs outside the
  // cache lock; its exception (if any) is rethrown on every coalesced
  // caller and nothing is cached.
  //
  // `flight_discriminator` extends the *coalescing* identity (not the
  // completed-entry key): two requests may share a completed result yet
  // must not share an in-flight computation when a request parameter that
  // is irrelevant to a success can change a *failure* — the determine
  // path passes its tick budget here, so a generously-budgeted request
  // never inherits the budget-exhaustion failure of a strangled twin.
  //
  // `looked_up`, when set, is called once under the cache lock as soon as
  // the key is resolved as a hit, a coalesce or a newly registered flight,
  // before any wait or compute: the service uses it to let the next
  // pipelined request of a connection make its own lookup.
  std::shared_ptr<const CachedMap> get_or_compute(
      const CacheKey& key, const std::function<CachedMap()>& compute,
      std::string* outcome = nullptr, std::uint64_t flight_discriminator = 0,
      const std::function<void()>& looked_up = {});

  // Plain lookup of a completed entry (counts a hit and refreshes LRU
  // recency when found; null otherwise, and nothing is counted).
  std::shared_ptr<const CachedMap> lookup(const CacheKey& key);

  // Inserts a completed determination without computing it — the
  // warm-start replay of a persistent store. Returns true when the key was
  // absent (counted as an insert); an existing entry is refreshed, not
  // duplicated (runs are deterministic, so the values are identical).
  bool put(const CacheKey& key, const CachedMap& value);

  CacheStats stats() const;

 private:
  using Entry = std::shared_ptr<const CachedMap>;

  struct InFlight {
    bool done = false;
    Entry value;
    std::exception_ptr error;
  };

  struct FlightKey {
    CacheKey key;
    std::uint64_t discriminator = 0;
    bool operator==(const FlightKey&) const = default;
  };
  struct FlightKeyHash {
    std::size_t operator()(const FlightKey& k) const {
      return CacheKeyHash{}(k.key) ^
             (std::hash<std::uint64_t>{}(k.discriminator) * 0x9e3779b97f4a7c15ull);
    }
  };

  using LruList = std::list<std::pair<CacheKey, Entry>>;

  // Pre: lock held. Moves `it` to the front (most recently used).
  void touch(LruList::iterator it);
  // Pre: lock held. Inserts and evicts down to capacity; returns true when
  // the key was absent. A key computed concurrently under two flight
  // discriminators can already be present — runs are deterministic, so the
  // existing entry is simply refreshed.
  bool insert_locked(const CacheKey& key, Entry value);

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> index_;
  std::unordered_map<FlightKey, std::shared_ptr<InFlight>, FlightKeyHash>
      in_flight_;
  CacheStats stats_;
};

}  // namespace dtop::service
