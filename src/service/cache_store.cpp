#include "service/cache_store.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <ostream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/bytes.hpp"
#include "support/error.hpp"

namespace dtop::service {
namespace {

constexpr std::size_t kHeaderSize = sizeof(kCacheStoreMagic) + 4;
// Framing sanity bound: a record is one map text plus small metadata, and
// map texts for even huge networks are far below this. A length field above
// it can only be torn or corrupt framing.
constexpr std::uint32_t kMaxPayload = 256u * 1024u * 1024u;

// Integers travel little-endian, fixed width (support/bytes.hpp): the store
// is a per-daemon local file, but a byte-stable format costs nothing and
// keeps the robustness tests' hand-built fixtures portable. A string is a
// u64 length and its bytes.
void put_str(std::string& out, const std::string& s) {
  put_u64le(out, s.size());
  out += s;
}

bool take_str(ByteReader& r, std::string* s) {
  std::uint64_t len = 0;
  std::string_view v;
  if (!r.u64le(len) || !r.bytes(len, v)) return false;
  s->assign(v);
  return true;
}

// Reads one frame head (u32 payload_len, u64 checksum) at `pos` and checks
// that the whole payload is present. False on a torn or absurd frame.
bool frame_at(const std::string& bytes, std::size_t pos, std::uint32_t* len,
              std::uint64_t* checksum) {
  ByteReader frame(std::string_view(bytes).substr(pos));
  return frame.u32le(*len) && frame.u64le(*checksum) && *len <= kMaxPayload &&
         frame.remaining() >= *len;
}

bool decode_record(std::string_view payload, CacheKey* key,
                   CachedMap* value) {
  ByteReader r(payload);
  std::uint64_t n = 0, d = 0, e = 0, ticks = 0;
  const bool ok = r.u64le(key->graph_hash) && take_str(r, &key->config) &&
                  take_str(r, &value->label) && r.u64le(n) && r.u64le(d) &&
                  r.u64le(e) && r.u64le(ticks) && r.u64le(value->messages) &&
                  r.u64le(value->node_steps) &&
                  take_str(r, &value->map_text) && r.done();
  if (!ok) return false;
  value->n = static_cast<NodeId>(n);
  value->d = static_cast<std::uint32_t>(d);
  value->e = static_cast<std::uint32_t>(e);
  value->ticks = static_cast<Tick>(ticks);
  return true;
}

// Byte offset just past the last intact record (frame complete, checksum
// matches). Everything after it is a torn tail a crash left behind.
std::size_t valid_prefix_end(const std::string& bytes) {
  std::size_t pos = kHeaderSize;
  while (pos < bytes.size()) {
    std::uint32_t len = 0;
    std::uint64_t checksum = 0;
    if (!frame_at(bytes, pos, &len, &checksum) ||
        fnv1a64(std::string_view(bytes).substr(pos + 12, len)) != checksum) {
      break;
    }
    pos += 12 + len;
  }
  return pos;
}

std::string header_bytes() {
  std::string h(kCacheStoreMagic, sizeof(kCacheStoreMagic));
  put_u32le(h, kCacheStoreVersion);
  return h;
}

// Full blocking write of one buffer; the caller holds the store lock, so a
// record reaches the file as one contiguous span (a SIGKILL can truncate
// it, never interleave it).
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::string encode_cache_record(const CacheKey& key, const CachedMap& value) {
  std::string payload;
  put_u64le(payload, key.graph_hash);
  put_str(payload, key.config);
  put_str(payload, value.label);
  put_u64le(payload, value.n);
  put_u64le(payload, value.d);
  put_u64le(payload, value.e);
  put_u64le(payload, static_cast<std::uint64_t>(value.ticks));
  put_u64le(payload, value.messages);
  put_u64le(payload, value.node_steps);
  put_str(payload, value.map_text);

  std::string record;
  put_u32le(record, static_cast<std::uint32_t>(payload.size()));
  put_u64le(record, fnv1a64(payload));
  record += payload;
  return record;
}

CacheStore::CacheStore(const std::string& path, std::ostream& warn)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw Error("cannot open cache store '" + path +
                "': " + std::strerror(errno));
  }
  struct stat st = {};
  DTOP_CHECK(::fstat(fd_, &st) == 0, "cannot stat cache store '" + path + "'");
  if (st.st_size == 0) {
    if (!write_all(fd_, header_bytes())) {
      ::close(fd_);
      fd_ = -1;
      throw Error("cannot write cache store header to '" + path + "'");
    }
    return;
  }
  // A non-empty file must open with our exact header, or this daemon's
  // records must not be mixed into it.
  std::ifstream in(path, std::ios::binary);
  std::string head(kHeaderSize, '\0');
  in.read(head.data(), static_cast<std::streamsize>(kHeaderSize));
  const bool compatible =
      in.gcount() == static_cast<std::streamsize>(kHeaderSize) &&
      std::memcmp(head.data(), kCacheStoreMagic, sizeof(kCacheStoreMagic)) ==
          0 &&
      load_u32le(head.data() + sizeof(kCacheStoreMagic)) == kCacheStoreVersion;
  if (!compatible) {
    warn << "dtopd: cache store '" << path
         << "' has an unknown header (different version?) — persistence "
            "disabled for this run, file left untouched\n"
         << std::flush;
    ::close(fd_);
    fd_ = -1;
    disabled_ = true;
    return;
  }
  // Drop any torn tail a crash mid-append left behind: O_APPEND would put
  // new records *after* the torn bytes, where no load() would ever reach
  // them. Truncating to the last intact record keeps every future append
  // loadable. (A checksum-valid prefix that fails decode is left for
  // load() to warn about — it is corruption, not tearing.)
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  in.clear();
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (in.gcount() == static_cast<std::streamsize>(bytes.size())) {
    const std::size_t end = valid_prefix_end(bytes);
    if (end < bytes.size()) {
      warn << "dtopd: cache store '" << path << "' has a torn tail at " << end
           << " — truncating to the last intact record\n"
           << std::flush;
      if (::ftruncate(fd_, static_cast<off_t>(end)) != 0) {
        ::close(fd_);
        fd_ = -1;
        disabled_ = true;
      }
    }
  }
}

CacheStoreStats CacheStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void CacheStore::append(const CacheKey& key, const CachedMap& value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (disabled_ || fd_ < 0) return;
  const std::string record = encode_cache_record(key, value);
  if (write_all(fd_, record)) {
    ++stats_.appended_records;
    stats_.appended_bytes += record.size();
    return;
  }
  // A full disk or revoked fd downs persistence, not the daemon; the
  // in-memory cache keeps serving. (No stream to warn on here — append
  // runs on request workers — but disabled() is visible to the owner.)
  ::close(fd_);
  fd_ = -1;
  disabled_ = true;
}

std::size_t CacheStore::load(
    const std::string& path,
    const std::function<void(CacheKey, CachedMap)>& sink, std::ostream& warn,
    std::uint64_t* bytes_out) {
  if (bytes_out) *bytes_out = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return 0;  // no store yet: a cold start, not an error
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (bytes.empty()) return 0;

  if (bytes.size() < kHeaderSize ||
      std::memcmp(bytes.data(), kCacheStoreMagic, sizeof(kCacheStoreMagic)) !=
          0) {
    warn << "dtopd: cache store '" << path
         << "' is not a dtop cache store — skipping it\n"
         << std::flush;
    return 0;
  }
  const std::uint32_t version =
      load_u32le(bytes.data() + sizeof(kCacheStoreMagic));
  if (version != kCacheStoreVersion) {
    warn << "dtopd: cache store '" << path << "' has version " << version
         << " (this build reads " << kCacheStoreVersion
         << ") — skipping it\n"
         << std::flush;
    return 0;
  }

  std::size_t count = 0;
  std::size_t pos = kHeaderSize;
  while (pos < bytes.size()) {
    std::uint32_t len = 0;
    std::uint64_t checksum = 0;
    if (!frame_at(bytes, pos, &len, &checksum)) {
      warn << "dtopd: cache store '" << path << "' has a truncated record at "
           << pos << " — keeping the " << count << " records before it\n"
           << std::flush;
      return count;
    }
    const std::string_view payload =
        std::string_view(bytes).substr(pos + 12, len);
    CacheKey key;
    CachedMap value;
    if (fnv1a64(payload) != checksum ||
        !decode_record(payload, &key, &value)) {
      warn << "dtopd: cache store '" << path << "' has a corrupt record at "
           << pos << " — keeping the " << count << " records before it\n"
           << std::flush;
      return count;
    }
    sink(std::move(key), std::move(value));
    ++count;
    if (bytes_out) *bytes_out += 12 + len;
    pos += 12 + len;
  }
  return count;
}

}  // namespace dtop::service
