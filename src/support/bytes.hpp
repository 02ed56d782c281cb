// The repo's byte encodings, in one place: the FNV-1a 64 hash, fixed-width
// little-endian integers, LEB128 varints, and one bounds-checked read
// cursor over a byte buffer.
//
// Every on-disk and on-wire format builds on these: DTR2 trace frames and
// their payloads (trace/container.hpp, trace/trace_io.hpp), the dtopd cache
// store's records (service/cache_store.hpp) and the rooted canonical-form
// hash (graph/canonical.hpp). Writers append to a std::string; readers
// walk a ByteReader, whose every read reports failure by return value
// (false, cursor unmoved) so each format picks its own error: the trace
// layer throws TraceError, the cache store warns and keeps the intact
// prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dtop {

// FNV-1a 64. Not collision-resistant: a checksum and a routing hash, never
// an identity proof. Inline because dtopd hashes every request line and
// canonical form with it.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

inline void put_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline std::uint32_t load_u32le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::uint32_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return v;
}

inline std::uint64_t load_u64le(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return v;
}

// LEB128: seven bits per byte, low group first, high bit = "more follows".
inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(0x80 | (v & 0x7F)));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

// A read cursor over bytes it does not own. Each read returns false, and
// leaves the cursor where it was, when the buffer ends first (or, for
// varint, when the encoding does not fit 64 bits).
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

  bool u8(std::uint8_t& v) {
    if (done()) return false;
    v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }

  bool u32le(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = load_u32le(bytes_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool u64le(std::uint64_t& v) {
    if (remaining() < 8) return false;
    v = load_u64le(bytes_.data() + pos_);
    pos_ += 8;
    return true;
  }

  bool varint(std::uint64_t& v) {
    std::uint64_t acc = 0;
    std::size_t p = pos_;
    for (int shift = 0; shift < 64 && p < bytes_.size(); shift += 7) {
      const auto b = static_cast<std::uint8_t>(bytes_[p++]);
      // At shift 63 only bit 0 of the final byte still fits; a wider
      // payload would silently lose its bits 1..6 and decode a crafted
      // 10-byte varint to the wrong value instead of failing.
      if (shift == 63 && (b & 0x7E)) return false;
      acc |= std::uint64_t{b & 0x7Fu} << shift;
      if (!(b & 0x80)) {
        v = acc;
        pos_ = p;
        return true;
      }
    }
    return false;  // truncated, or still continuing after 10 bytes
  }

  // The next `n` bytes, as a view into the underlying buffer.
  bool bytes(std::uint64_t n, std::string_view& v) {
    if (remaining() < n) return false;
    v = bytes_.substr(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace dtop
