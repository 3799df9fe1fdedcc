#ifndef SARGUS_COMMON_PARALLEL_H_
#define SARGUS_COMMON_PARALLEL_H_

/// \file parallel.h
/// \brief ParallelFor: fork-join over a handful of tasks, one thread each.
///
/// The library's data-parallel steps (the chunks of a CSR build, of its
/// in-side derivation and of a loaded CSR's shape check) split their
/// work into at most one task per core up front, so they need no pool
/// and no queue: each task gets a thread of its own for the length of
/// the call.

#include <algorithm>
#include <cstddef>
#include <system_error>
#include <thread>
#include <vector>

namespace sargus {

/// Runs fn(0), ..., fn(n - 1) and returns once every call has returned.
/// fn(0) runs on the calling thread and every other index on a thread of
/// its own, so `n` should not exceed the core count. On a one-core
/// machine, or when the system refuses a thread, those calls run inline
/// instead. The calls must write disjoint data; returning joins every
/// helper, which publishes their writes to the caller. fn must not
/// throw.
template <typename Fn>
void ParallelFor(size_t n, const Fn& fn) {
  if (n <= 1 || std::thread::hardware_concurrency() <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::jthread> helpers;  // each joins when destroyed
  helpers.reserve(n - 1);
  for (size_t i = 1; i < n; ++i) {
    try {
      helpers.emplace_back([&fn, i] { fn(i); });
    } catch (const std::system_error&) {
      fn(i);
    }
  }
  fn(0);
}

/// A step over CSR entries runs on one thread until it has this many
/// entries per core. Measured on 4 vCPUs: a no-op ParallelFor(4)
/// fork-join takes 40-65 us, and in some fresh processes every thread
/// runs on one vCPU for about the first second, so helpers start
/// 0.8-2.4 ms apart (a 262,144-node build then takes 42-58 ms instead
/// of ~11 ms). At 2^18 entries a chunk's share of a build outlasts both.
/// A 262,144-node Barabási–Albert graph (1.57M edges) gets four chunks,
/// a 65,536-node one (393k edges) stays on one.
inline constexpr size_t kMinEntriesPerChunk = size_t{1} << 18;

/// How many ParallelFor tasks a step over `entries` CSR entries gets:
/// one per kMinEntriesPerChunk, at most one per core.
inline size_t NumChunks(size_t entries) {
  const size_t wanted = entries / kMinEntriesPerChunk;
  if (wanted <= 1) return 1;  // skips the core count's file read
  return std::min<size_t>(wanted,
                          std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace sargus

#endif  // SARGUS_COMMON_PARALLEL_H_
