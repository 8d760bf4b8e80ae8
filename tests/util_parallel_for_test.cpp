#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace geomcast::util {
namespace {

/// Runs parallel_for over [0, n) and returns how often each index was
/// visited (atomics: chunks run on different threads).
std::vector<int> visits(std::size_t n, std::size_t threads) {
  std::vector<std::atomic<int>> counts(n);
  parallel_for(n, threads, [&](std::size_t begin, std::size_t end) {
    EXPECT_LE(begin, end);
    EXPECT_LE(end, n);
    for (std::size_t i = begin; i < end; ++i) counts[i].fetch_add(1);
  });
  std::vector<int> out;
  out.reserve(n);
  for (const auto& count : counts) out.push_back(count.load());
  return out;
}

TEST(ParallelForTest, EmptyRangeVisitsNothing) {
  EXPECT_TRUE(visits(0, 4).empty());
  EXPECT_TRUE(visits(0, 1).empty());
}

TEST(ParallelForTest, EveryIndexOnceAcrossShapes) {
  const struct {
    std::size_t n, threads;
  } shapes[] = {
      {3, 8},    // fewer indices than threads
      {1, 4},    // single index
      {17, 1},   // serial
      {17, 0},   // zero threads means serial
      {10, 4},   // uneven chunks: 3 + 3 + 3 + 1
      {7, 3},    // uneven chunks: 3 + 3 + 1
      {64, 4},   // even chunks
  };
  for (const auto& shape : shapes)
    EXPECT_EQ(visits(shape.n, shape.threads), std::vector<int>(shape.n, 1))
        << "n=" << shape.n << " threads=" << shape.threads;
}

TEST(ParallelForTest, SerialPathRunsOneChunkOnCallingThread) {
  std::size_t calls = 0;
  const auto caller = std::this_thread::get_id();
  parallel_for(9, 1, [&](std::size_t begin, std::size_t end) {
    ++calls;
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 9u);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelForTest, ChunkCountNeverExceedsThreads) {
  std::atomic<std::size_t> chunks{0};
  parallel_for(10, 4, [&](std::size_t, std::size_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 4u);
  chunks = 0;
  parallel_for(5, 4, [&](std::size_t, std::size_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 3u);  // ceil(5/4) = 2 per chunk: 2 + 2 + 1
}

}  // namespace
}  // namespace geomcast::util
