// The dtopd persistent cache tier: an append-only record store for
// completed determinations, keyed exactly like the in-memory ResultCache
// (rooted canonical-form hash + engine-config label). A restarted daemon
// replays the file into its LRU and answers its first repeat request from
// the warm cache.
//
// Durability posture: the store must survive a SIGKILL mid-append without
// ever poisoning a restart. Each record is framed as
//
//   u32 payload_len | u64 fnv1a64(payload) | payload
//
// behind an 8-byte magic + u32 version header. Integers are little-endian;
// the hash and the integer codecs are support/bytes.hpp's, shared with the
// DTR2 trace container. append() hands the kernel one complete
// pwrite-sized buffer per record. A torn tail (the
// process died inside the write) fails the length or checksum check, and
// load() keeps every record before it, warns, and stops — never throws on
// file *content*. A file with an unknown magic or version is skipped in
// full (and the store refuses to append to it: mixing record versions in
// one file would corrupt both). Appends never rewrite earlier bytes, so
// the loadable prefix only ever grows; duplicate keys across restarts are
// collapsed at load time by the cache's own insert (runs are
// deterministic, so duplicates carry identical values).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>

#include "service/result_cache.hpp"

namespace dtop::service {

inline constexpr char kCacheStoreMagic[8] = {'d', 't', 'o', 'p',
                                             'c', 's', 't', '\n'};
inline constexpr std::uint32_t kCacheStoreVersion = 1;

// Cumulative append-side accounting, sampled by the service's metrics
// scrape (store_append_records_total / store_append_bytes_total).
struct CacheStoreStats {
  std::uint64_t appended_records = 0;
  std::uint64_t appended_bytes = 0;
};

class CacheStore {
 public:
  // Opens `path` for appending, writing a fresh header when the file is
  // missing or empty. Throws Error when the path cannot be opened at all
  // (bad directory, permissions) — a misconfigured store should fail loud.
  // An existing file with a foreign magic/version is left untouched: the
  // store disables itself with a warning on `warn` and append() becomes a
  // no-op (the daemon keeps serving, just without persistence). A
  // compatible file with a torn tail (a crash mid-append) is truncated to
  // its last intact record, so future appends stay loadable.
  CacheStore(const std::string& path, std::ostream& warn);

  // Appends one record and flushes. Thread-safe; no-op when disabled.
  void append(const CacheKey& key, const CachedMap& value);

  const std::string& path() const { return path_; }
  bool disabled() const { return disabled_; }

  // Records and bytes appended by this store instance (framing included).
  CacheStoreStats stats() const;

  // Replays every intact record into `sink`, in file order. Returns the
  // record count. Malformed content — truncated tail, checksum mismatch,
  // foreign magic or version — is reported on `warn` and cleanly ends the
  // replay; only an unreadable *path* distinguishes "no store yet" (returns
  // 0 silently when the file does not exist).
  // `bytes_out`, when non-null, receives the payload+framing bytes of the
  // replayed records (the warm-start volume the metrics scrape reports).
  static std::size_t load(const std::string& path,
                          const std::function<void(CacheKey, CachedMap)>& sink,
                          std::ostream& warn,
                          std::uint64_t* bytes_out = nullptr);

 private:
  mutable std::mutex mu_;
  std::string path_;
  int fd_ = -1;
  bool disabled_ = false;
  CacheStoreStats stats_;
};

// Serialization of one record payload, exposed for the robustness tests
// (which build deliberately torn and corrupted files).
std::string encode_cache_record(const CacheKey& key, const CachedMap& value);

}  // namespace dtop::service
