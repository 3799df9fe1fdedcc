#ifndef SARGUS_BENCH_E2E_WORKLOADS_H_
#define SARGUS_BENCH_E2E_WORKLOADS_H_

/// \file workloads.h
/// \brief The four bench_e2e workloads. Each generates its inputs from
/// the seed, sets up (timed), warms up, measures for Options::seconds,
/// checks sampled outputs against brute force, and fills the report.
/// README.md gives the reason for each.

#include "harness.h"

namespace sargus::e2e {

/// Facade CheckAccess from two closed-loop threads on a large clean
/// snapshot, then bundle save and OpenFromDir.
void RunHotRead(const Options& options, Report* report);
/// Open-loop durable writes at a fixed rate under two facade readers.
void RunChurnWrite(const Options& options, Report* report);
/// 1 resource x 64 requesters batches through a pinned read view.
void RunBatchFanout(const Options& options, Report* report);
/// CheckAccessBatch through a 4-shard threaded ShardRouter.
void RunShardedRead(const Options& options, Report* report);

}  // namespace sargus::e2e

#endif  // SARGUS_BENCH_E2E_WORKLOADS_H_
