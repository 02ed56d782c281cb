// Unit tests for src/support: fixed containers, RNG, statistics, tables,
// and the persistent thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/fixed_vector.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace dtop {
namespace {

// The published FNV-1a 64 test vectors: the offset basis for the empty
// string, then two of the reference implementation's known answers.
TEST(Bytes, Fnv1a64KnownAnswers) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Bytes, LittleEndianIntsRoundTripThroughTheCursor) {
  std::string buf;
  put_u32le(buf, 0x01020304u);
  put_u64le(buf, 0x0102030405060708ull);
  ASSERT_EQ(buf.size(), 12u);
  EXPECT_EQ(buf[0], 0x04);  // low byte first
  EXPECT_EQ(buf[4], 0x08);
  EXPECT_EQ(load_u32le(buf.data()), 0x01020304u);
  EXPECT_EQ(load_u64le(buf.data() + 4), 0x0102030405060708ull);

  ByteReader r(buf);
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  ASSERT_TRUE(r.u32le(a));
  ASSERT_TRUE(r.u64le(b));
  EXPECT_EQ(a, 0x01020304u);
  EXPECT_EQ(b, 0x0102030405060708ull);
  EXPECT_TRUE(r.done());

  // A short read fails and leaves the cursor where it was.
  ByteReader short_read(std::string_view(buf).substr(0, 7));
  ASSERT_TRUE(short_read.u32le(a));
  EXPECT_FALSE(short_read.u64le(b));
  EXPECT_EQ(short_read.pos(), 4u);
  std::string_view view;
  EXPECT_FALSE(short_read.bytes(4, view));
  ASSERT_TRUE(short_read.bytes(3, view));
  EXPECT_EQ(view, std::string_view(buf).substr(4, 3));
  std::uint8_t byte = 0;
  EXPECT_FALSE(short_read.u8(byte));
}

TEST(FixedVector, PushPopIndex) {
  FixedVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v.back(), 3);
  v.pop_back();
  EXPECT_EQ(v.size(), 2u);
}

TEST(FixedVector, OverflowThrows) {
  FixedVector<int, 2> v;
  v.push_back(1);
  v.push_back(2);
  EXPECT_TRUE(v.full());
  EXPECT_THROW(v.push_back(3), Error);
}

TEST(FixedVector, EraseAtPreservesOrder) {
  FixedVector<int, 8> v;
  for (int i = 0; i < 5; ++i) v.push_back(i);
  v.erase_at(1);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[1], 2);
  EXPECT_EQ(v[3], 4);
}

TEST(FixedVector, IndexOutOfRangeThrows) {
  FixedVector<int, 4> v;
  v.push_back(7);
  EXPECT_THROW(v[1], Error);
  EXPECT_THROW(v.erase_at(2), Error);
}

TEST(FixedQueue, FifoOrder) {
  FixedQueue<int, 4> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.front(), 1);
  q.pop();
  q.push(4);
  EXPECT_EQ(q.front(), 2);
  EXPECT_EQ(q.at(2), 4);
  q.pop();
  q.pop();
  EXPECT_EQ(q.front(), 4);
}

TEST(FixedQueue, WrapsAround) {
  FixedQueue<int, 3> q;
  for (int round = 0; round < 10; ++round) {
    q.push(round);
    EXPECT_EQ(q.front(), round);
    q.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, OverflowUnderflowThrow) {
  FixedQueue<int, 2> q;
  EXPECT_THROW(q.pop(), Error);
  q.push(1);
  q.push(2);
  EXPECT_THROW(q.push(3), Error);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(13);
    EXPECT_LT(v, 13u);
  }
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(11);
  int counts[4] = {0, 0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(4)];
  for (int c : counts) {
    EXPECT_GT(c, n / 4 - n / 20);
    EXPECT_LT(c, n / 4 + n / 20);
  }
}

TEST(Rng, ShufflePermutes) {
  Rng rng(3);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::vector<int> sorted = w;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

TEST(Rng, SplitIndependent) {
  Rng a(5);
  Rng b = a.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Accumulator, Moments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
}

TEST(Stats, LinearFitExact) {
  std::vector<double> x{1, 2, 3, 4}, y{5, 7, 9, 11};  // y = 2x + 3
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 3.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, ProportionalFit) {
  std::vector<double> x{1, 2, 3}, y{3.1, 5.9, 9.0};
  const LinearFit f = fit_proportional(x, y);
  EXPECT_NEAR(f.slope, 3.0, 0.05);
  EXPECT_GT(f.r2, 0.99);
}

TEST(Stats, PowerLawFit) {
  std::vector<double> x{2, 4, 8, 16}, y;
  for (double v : x) y.push_back(5.0 * v * v);  // y = 5 x^2
  const LinearFit f = fit_power_law(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.intercept, 5.0, 1e-6);
}

TEST(Stats, Log2Factorial) {
  EXPECT_DOUBLE_EQ(log2_factorial(0), 0.0);
  EXPECT_DOUBLE_EQ(log2_factorial(1), 0.0);
  EXPECT_NEAR(log2_factorial(5), std::log2(120.0), 1e-9);
  EXPECT_NEAR(log2_factorial(20),
              std::log2(2432902008176640000.0), 1e-6);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{42});
  t.row().cell("b").cell(3.14159, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    DTOP_CHECK(1 == 2, "context message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
  }
}

TEST(ThreadPool, EveryWorkerRunsEachDispatch) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> hits{0};
  std::atomic<int> mask{0};
  pool.run([&](int t) {
    hits.fetch_add(1);
    mask.fetch_or(1 << t);
  });
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(ThreadPool, ManySmallDispatchesStress) {
  // 20k back-to-back barrier crossings: a lost wakeup anywhere in the
  // dispatch/join protocol shows up here as a hang.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  for (int i = 0; i < 20000; ++i) {
    pool.run([&](int t) { sum.fetch_add(static_cast<std::uint64_t>(t) + 1); });
  }
  EXPECT_EQ(sum.load(), 20000ull * (1 + 2 + 3 + 4));
}

TEST(ThreadPool, ParkPathStress) {
  // spin_iters = 0 removes the spin window entirely — every worker parks on
  // the condvar between dispatches and every join parks on the caller side.
  ThreadPoolOptions opt;
  opt.num_threads = 4;
  opt.spin_iters = 0;
  ThreadPool pool(opt);
  std::atomic<int> hits{0};
  for (int i = 0; i < 2000; ++i) {
    pool.run([&](int) { hits.fetch_add(1); });
  }
  EXPECT_EQ(hits.load(), 2000 * 4);
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run([](int t) {
        if (t == 3) throw std::runtime_error("worker 3 boom");
      }),
      std::runtime_error);
  // The pool must survive the throw and keep dispatching.
  std::atomic<int> hits{0};
  pool.run([&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int calls = 0;
  pool.run([&](int t) {
    EXPECT_EQ(t, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DTOP_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DTOP_TEST_SANITIZED 1
#endif
#endif

#if defined(__linux__)
// Caps the address space at the current size plus `headroom` bytes: room
// for small allocations, none for dozens of thread stacks.
void cap_address_space(std::size_t headroom) {
  std::size_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const rlimit lim{pages * page + headroom, pages * page + headroom};
  if (setrlimit(RLIMIT_AS, &lim) != 0) std::_Exit(4);
}
#endif

TEST(ThreadPool, SpawnFailureThrowsErrorInsteadOfAborting) {
#if defined(DTOP_TEST_SANITIZED)
  GTEST_SKIP() << "sanitizer shadow memory needs a large address space";
#elif !defined(__linux__)
  GTEST_SKIP() << "needs RLIMIT_AS and /proc/self/statm";
#else
  // A std::thread that cannot start throws std::system_error; the pool must
  // join the workers it already started and throw dtop::Error, not let the
  // half-built thread vector call std::terminate.
  EXPECT_EXIT(
      {
        cap_address_space(std::size_t{32} << 20);
        try {
          ThreadPool pool(64);
        } catch (const Error& e) {
          const std::string what = e.what();
          std::_Exit(what.find("64 threads") != std::string::npos ? 0 : 2);
        }
        std::_Exit(3);
      },
      ::testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace dtop
