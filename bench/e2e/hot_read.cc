/// hot_read: facade CheckAccess from two closed-loop threads on a clean
/// 262,144-node snapshot, then a bundle save and OpenFromDir.

#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "storage/snapshot_format.h"
#include "workloads.h"

namespace sargus::e2e {

namespace {

constexpr size_t kReaders = 2;

}  // namespace

void RunHotRead(const Options& options, Report* report) {
  const size_t nodes = options.Scaled(262144, 2000);
  const size_t resources = options.Scaled(4096, 64);
  SocialGraph graph = MakeGraph(nodes);
  PolicyStore store;
  RegisterPolicies(&store, nodes, resources);
  const std::vector<Pair> stream =
      MakePairs(nodes, resources, size_t{1} << 20, options.seed + 2);

  // Set-up: the time until the first decision can be served.
  std::unique_ptr<AccessControlEngine> engine;
  if (!TimeSetups([&] { engine.reset(); },
                  [&] {
                    engine = std::make_unique<AccessControlEngine>(graph, store);
                    return engine->RebuildIndexes();
                  },
                  report)) {
    return;
  }

  std::atomic<int> phase{kWarmUp};
  std::vector<FacadeReader> readers(kReaders);
  std::vector<std::thread> threads =
      StartReaders(readers, *engine, stream, options, 1, phase);
  std::this_thread::sleep_for(std::chrono::duration<double>(
      options.smoke ? 0.1 : 1.0));
  const CpuTimes cpu0 = ReadCpuTimes();
  phase.store(kMeasure);
  std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds));
  phase.store(kStop);
  for (std::thread& t : threads) t.join();
  report->Set("host.steal_share", StealShare(cpu0, ReadCpuTimes()));

  std::vector<TraceBuffer> buffers;
  ReadTotals reads = MergeReaders(readers, &buffers, report);
  report->attempted = reads.checks;
  report->failed = reads.failed;
  ReportOps(std::move(reads.ops), 1.0, report);

  // Durability: save a bundle, drop the engine, reopen it, and expect
  // the same decisions.
  const std::string dir = FreshDir(options, "hot_read");
  int64_t t0 = NowNs();
  Status s = engine->EnableDurability(dir);
  report->Set("storage.save_s", SecondsSince(t0));
  if (!s.ok()) {
    report->Mismatch("EnableDurability: " + s.ToString());
    return;
  }
  report->Set("storage.bundle_mb",
              FileMiB(dir + "/" + storage::kSnapshotFileName));
  const auto before = Decide(*engine, stream, kRecoverySample);
  engine.reset();
  SocialGraph reopened_graph;
  t0 = NowNs();
  auto reopened = AccessControlEngine::OpenFromDir(dir, &reopened_graph, store);
  report->Set("storage.recover_s", SecondsSince(t0));
  if (!reopened.ok()) {
    report->Mismatch("OpenFromDir: " + reopened.status().ToString());
    return;
  }
  CompareDecisions(before, Decide(**reopened, stream, kRecoverySample),
                   "hot_read recovery", report);
  reopened->reset();
  std::filesystem::remove_all(dir);

  const Oracle oracle(graph, store);
  report->samples.emplace_back(
      "verified", oracle.Verify(reads.samples, "hot_read", report));

  if (options.trace) {
    FinishTrace(options, "hot_read", buffers, std::move(reads.traced_us),
                std::move(reads.untraced_us), report);
  }
}

}  // namespace sargus::e2e
