#include "trace/codec.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "trace/trace_io.hpp"

#if DTOP_HAVE_ZSTD
#include <zstd.h>
#endif

namespace dtop::trace {

const char* to_cstr(TraceCodec c) {
  switch (c) {
    case TraceCodec::kRaw: return "raw";
    case TraceCodec::kDlz: return "dlz";
    case TraceCodec::kZstd: return "zstd";
  }
  return "?";
}

bool codec_available(TraceCodec c) {
  switch (c) {
    case TraceCodec::kRaw:
    case TraceCodec::kDlz:
      return true;
    case TraceCodec::kZstd:
#if DTOP_HAVE_ZSTD
      return true;
#else
      return false;
#endif
  }
  return false;
}

TraceCodec default_trace_codec() {
#if DTOP_HAVE_ZSTD
  return TraceCodec::kZstd;
#else
  return TraceCodec::kDlz;
#endif
}

// --- dlz: the built-in byte-oriented LZ codec ------------------------------
//
// Token stream. Each token is one control byte T:
//   T < 0x80   literal run of T+1 bytes, which follow verbatim;
//   T >= 0x80  match of length (T & 0x7F) + 4, followed by a 2-byte
//              little-endian distance in [1, 65535]. The match copies from
//              already-produced output; overlapping copies (distance <
//              length) repeat the overlapped bytes, RLE-style.
// Matches longer than 131 bytes are emitted as consecutive match tokens.
// The format has no terminator: the container knows the raw size and the
// decoder must land on it exactly.

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxTokenMatch = 0x7F + kMinMatch;  // 131
constexpr std::size_t kMaxTokenLiterals = 0x80;           // 128
constexpr std::size_t kMaxDistance = 0xFFFF;
constexpr int kHashBits = 15;

std::uint32_t load32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t hash4(const unsigned char* p) {
  // Knuth multiplicative hash of the next 4 bytes.
  return (load32(p) * 2654435761u) >> (32 - kHashBits);
}

void flush_literals(std::string& out, const unsigned char* src,
                    std::size_t begin, std::size_t end) {
  while (begin < end) {
    const std::size_t n = std::min(end - begin, kMaxTokenLiterals);
    out.push_back(static_cast<char>(n - 1));
    out.append(reinterpret_cast<const char*>(src + begin), n);
    begin += n;
  }
}

std::string dlz_compress(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() / 2 + 16);
  const auto* src = reinterpret_cast<const unsigned char*>(raw.data());
  const std::size_t n = raw.size();

  // One candidate position per hash slot; 0xFFFFFFFF = empty. Greedy,
  // lz4-style: good ratios on repetitive event streams, one pass, no heap
  // beyond this table.
  std::vector<std::uint32_t> head(std::size_t{1} << kHashBits, 0xFFFFFFFFu);

  std::size_t pos = 0, literal_start = 0;
  while (n >= kMinMatch && pos + kMinMatch <= n) {
    const std::uint32_t h = hash4(src + pos);
    const std::uint32_t cand = head[h];
    head[h] = static_cast<std::uint32_t>(pos);
    if (cand != 0xFFFFFFFFu && pos - cand <= kMaxDistance &&
        load32(src + cand) == load32(src + pos)) {
      std::size_t len = kMinMatch;
      const std::size_t max_len = n - pos;
      while (len < max_len && src[cand + len] == src[pos + len]) ++len;
      flush_literals(out, src, literal_start, pos);
      const std::size_t distance = pos - cand;
      std::size_t remaining = len;
      while (remaining >= kMinMatch) {
        // Never leave a sub-kMinMatch tail that no token could encode; a
        // leftover tail < kMinMatch after the loop rejoins the literals.
        std::size_t take = std::min(remaining, kMaxTokenMatch);
        if (remaining - take > 0 && remaining - take < kMinMatch) {
          take = remaining - kMinMatch;
        }
        out.push_back(
            static_cast<char>(0x80 | static_cast<unsigned>(take - kMinMatch)));
        out.push_back(static_cast<char>(distance & 0xFF));
        out.push_back(static_cast<char>((distance >> 8) & 0xFF));
        remaining -= take;
      }
      const std::size_t consumed = len - remaining;
      // Re-seed the table inside the matched region so later repeats of its
      // interior are findable (every other position: cheap, good enough).
      for (std::size_t p2 = pos + 2;
           p2 + kMinMatch <= n && p2 < pos + consumed; p2 += 2) {
        head[hash4(src + p2)] = static_cast<std::uint32_t>(p2);
      }
      pos += consumed;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  flush_literals(out, src, literal_start, n);
  return out;
}

std::string dlz_decompress(std::string_view stored, std::size_t raw_size) {
  // Decodes into the pre-sized result: `done` bytes of it are produced.
  std::string out(raw_size, '\0');
  char* const dst = out.data();
  std::size_t done = 0;
  std::size_t pos = 0;
  const std::size_t n = stored.size();
  while (pos < n) {
    const auto token = static_cast<unsigned char>(stored[pos++]);
    if (token < 0x80) {
      const std::size_t len = std::size_t{token} + 1;
      if (len > n - pos || len > raw_size - done) {
        throw TraceError("trace corrupt: dlz literal run out of bounds");
      }
      std::memcpy(dst + done, stored.data() + pos, len);
      pos += len;
      done += len;
    } else {
      const std::size_t len = std::size_t{token & 0x7Fu} + kMinMatch;
      if (n - pos < 2) {
        throw TraceError("trace corrupt: dlz match truncated");
      }
      const std::size_t distance =
          static_cast<unsigned char>(stored[pos]) |
          (std::size_t{static_cast<unsigned char>(stored[pos + 1])} << 8);
      pos += 2;
      if (distance == 0 || distance > done || len > raw_size - done) {
        throw TraceError("trace corrupt: dlz match out of bounds");
      }
      char* const to = dst + done;
      const char* const from = to - distance;
      if (distance >= len) {
        std::memcpy(to, from, len);
      } else {
        // Overlapping: the match repeats the bytes it is producing, so it
        // must run forward a byte at a time (memmove would not replicate).
        for (std::size_t i = 0; i < len; ++i) to[i] = from[i];
      }
      done += len;
    }
  }
  if (done != raw_size) {
    throw TraceError("trace corrupt: dlz block decoded to wrong size");
  }
  return out;
}

#if DTOP_HAVE_ZSTD

std::string zstd_compress(std::string_view raw) {
  std::string out;
  out.resize(ZSTD_compressBound(raw.size()));
  const std::size_t n = ZSTD_compress(out.data(), out.size(), raw.data(),
                                      raw.size(), /*level=*/3);
  if (ZSTD_isError(n)) {
    throw TraceError(std::string("zstd compression failed: ") +
                     ZSTD_getErrorName(n));
  }
  out.resize(n);
  return out;
}

std::string zstd_decompress(std::string_view stored, std::size_t raw_size) {
  std::string out;
  out.resize(raw_size);
  const std::size_t n =
      ZSTD_decompress(out.data(), raw_size, stored.data(), stored.size());
  if (ZSTD_isError(n)) {
    throw TraceError(std::string("trace corrupt: zstd block: ") +
                     ZSTD_getErrorName(n));
  }
  if (n != raw_size) {
    throw TraceError("trace corrupt: zstd block decoded to wrong size");
  }
  return out;
}

#endif  // DTOP_HAVE_ZSTD

}  // namespace

std::string codec_compress(TraceCodec c, std::string_view raw) {
  switch (c) {
    case TraceCodec::kRaw:
      return std::string(raw);
    case TraceCodec::kDlz:
      return dlz_compress(raw);
    case TraceCodec::kZstd:
#if DTOP_HAVE_ZSTD
      return zstd_compress(raw);
#else
      break;
#endif
  }
  throw TraceError(std::string("codec '") + to_cstr(c) +
                   "' is not available in this build");
}

std::string codec_decompress(TraceCodec c, std::string_view stored,
                             std::size_t raw_size) {
  switch (c) {
    case TraceCodec::kRaw:
      if (stored.size() != raw_size) {
        throw TraceError("trace corrupt: raw block size mismatch");
      }
      return std::string(stored);
    case TraceCodec::kDlz:
      return dlz_decompress(stored, raw_size);
    case TraceCodec::kZstd:
#if DTOP_HAVE_ZSTD
      return zstd_decompress(stored, raw_size);
#else
      throw TraceError(
          "trace recorded with zstd, but this build lacks zstd support "
          "(reconfigure with libzstd available)");
#endif
  }
  throw TraceError("trace corrupt: unknown codec id");
}

}  // namespace dtop::trace
