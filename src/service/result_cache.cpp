#include "service/result_cache.hpp"

#include "support/error.hpp"

namespace dtop::service {

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {
  DTOP_REQUIRE(capacity >= 1, "cache capacity must be >= 1");
  stats_.capacity = capacity;
}

void ResultCache::touch(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

bool ResultCache::insert_locked(const CacheKey& key, Entry value) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent computations under distinct flight discriminators can
    // finish for the same key; runs are deterministic, so the values are
    // identical — refresh recency, don't duplicate the entry.
    touch(it->second);
    return false;
  }
  lru_.emplace_front(key, std::move(value));
  index_[key] = lru_.begin();
  ++stats_.inserts;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return true;
}

std::shared_ptr<const CachedMap> ResultCache::lookup(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  ++stats_.hits;
  touch(it->second);
  return it->second->second;
}

bool ResultCache::put(const CacheKey& key, const CachedMap& value) {
  // Built before the lock: the copy is the only part that scales with the
  // map, and no other caller needs to wait for it.
  Entry entry = std::make_shared<const CachedMap>(value);
  std::lock_guard<std::mutex> lock(mu_);
  return insert_locked(key, std::move(entry));
}

std::shared_ptr<const CachedMap> ResultCache::get_or_compute(
    const CacheKey& key, const std::function<CachedMap()>& compute,
    std::string* outcome, std::uint64_t flight_discriminator,
    const std::function<void()>& looked_up) {
  const FlightKey flight_key{key, flight_discriminator};
  std::shared_ptr<InFlight> pending;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      touch(it->second);
      if (outcome) *outcome = "hit";
      if (looked_up) looked_up();
      return it->second->second;
    }
    const auto fit = in_flight_.find(flight_key);
    if (fit != in_flight_.end()) {
      // Coalesce: share the in-flight computation instead of launching a
      // duplicate protocol run.
      ++stats_.coalesced;
      if (outcome) *outcome = "coalesced";
      if (looked_up) looked_up();
      const std::shared_ptr<InFlight> flight = fit->second;
      done_cv_.wait(lock, [&] { return flight->done; });
      if (flight->error) std::rethrow_exception(flight->error);
      return flight->value;
    }
    ++stats_.misses;
    ++stats_.executions;
    pending = std::make_shared<InFlight>();
    in_flight_[flight_key] = pending;
    if (looked_up) looked_up();
  }

  if (outcome) *outcome = "miss";
  try {
    Entry value = std::make_shared<const CachedMap>(compute());
    std::lock_guard<std::mutex> lock(mu_);
    insert_locked(key, value);
    pending->value = value;
    pending->done = true;
    in_flight_.erase(flight_key);
    done_cv_.notify_all();
    return value;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending->error = std::current_exception();
      pending->done = true;
      in_flight_.erase(flight_key);
    }
    done_cv_.notify_all();
    throw;
  }
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  s.size = lru_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace dtop::service
