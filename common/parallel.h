#ifndef SARGUS_COMMON_PARALLEL_H_
#define SARGUS_COMMON_PARALLEL_H_

/// \file parallel.h
/// \brief ParallelFor: fork-join over a handful of tasks, one thread each.
///
/// The library's data-parallel steps (the chunks of a CSR build and of
/// its in-side derivation) split their work into at most one task per
/// core up front, so they need no pool and no queue: each task gets a
/// thread of its own for the length of the call.

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

}  // namespace sargus

#endif  // SARGUS_COMMON_PARALLEL_H_
