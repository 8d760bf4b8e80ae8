// Fork-join loop over an index range, for the embarrassingly parallel
// overlay and experiment builds (per-peer selections, per-session runs).
#pragma once

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

namespace geomcast::util {

/// std::thread::hardware_concurrency(), or 1 when the host does not say.
[[nodiscard]] inline std::size_t hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

/// Splits [0, n) into at most `threads` contiguous chunks of ceil(n /
/// threads) indices and calls `body(begin, end)` once per chunk, each on
/// its own thread; returns when all chunks are done. With `threads` <= 1
/// or n <= 1 it runs `body(0, n)` on the calling thread. Chunks write
/// disjoint outputs, so results do not depend on the thread count.
template <typename Body>
void parallel_for(std::size_t n, std::size_t threads, Body&& body) {
  threads = std::min(threads, n);
  if (threads <= 1) {
    body(std::size_t{0}, n);
    return;
  }
  const std::size_t chunk = (n + threads - 1) / threads;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    pool.emplace_back([&body, begin, end] { body(begin, end); });
  }
  for (std::thread& thread : pool) thread.join();
}

}  // namespace geomcast::util
