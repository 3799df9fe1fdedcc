/// Unit test for trace.h on a synthetic span tree: self times,
/// durations, percentiles and the span file.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "trace.h"

namespace sargus::e2e {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "trace_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// Times are in ns; helpers report µs, so 1000 ns = 1 µs.
///
///   request [0, 100000]
///     a [10000, 30000]          overlaps b
///       grandchild [12000, 14000]
///     b [20000, 50000]
///     c [60000, 70000]
///     d [90000, 120000]         runs past the root's end
///   request [200000, 205000]    no children
///   (second buffer) request [0, 8000] with child e [1000, 3000]
std::vector<TraceBuffer> MakeTree() {
  std::vector<TraceBuffer> buffers(2);
  TraceBuffer& t = buffers[0];
  const int32_t root = t.Open("request", 1, -1, 0);
  const int32_t a = t.Add("a", 1, root, 10000, 30000);
  t.Add("grandchild", 1, a, 12000, 14000);
  t.Add("b", 1, root, 20000, 50000);
  t.Add("c", 1, root, 60000, 70000);
  t.Add("d", 1, root, 90000, 120000);
  t.Close(root, 100000);
  t.Add("request", 2, -1, 200000, 205000);
  TraceBuffer& u = buffers[1];
  const int32_t r2 = u.Open("request", 3, -1, 0);
  SpanTags tags;
  tags.evaluator = "join-index";
  u.Add("e", 3, r2, 1000, 3000, tags);
  u.Close(r2, 8000);
  return buffers;
}

void TestSelfTimes() {
  const auto buffers = MakeTree();
  // Root: children cover [10,50] + [60,70] + [90,100] = 60 µs of 100.
  const std::vector<double> roots = SelfTimesUs(buffers, "request");
  EXPECT(roots.size() == 3);
  EXPECT(Near(roots[0], 40.0));
  EXPECT(Near(roots[1], 5.0));
  EXPECT(Near(roots[2], 6.0));
  // Only direct children count: a loses its grandchild's 2 µs.
  const std::vector<double> a = SelfTimesUs(buffers, "a");
  EXPECT(a.size() == 1 && Near(a[0], 18.0));
  EXPECT(SelfTimesUs(buffers, "missing").empty());
}

void TestDurations() {
  const auto buffers = MakeTree();
  const std::vector<double> d = DurationsUs(buffers, "request");
  EXPECT(d.size() == 3);
  EXPECT(Near(d[0], 100.0) && Near(d[1], 5.0) && Near(d[2], 8.0));
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(Near(Percentile(v, 0.50), 50.0));
  EXPECT(Near(Percentile(v, 0.99), 99.0));
  EXPECT(Near(Percentile(v, 1.0), 100.0));
  EXPECT(Near(Percentile(v, 0.0), 1.0));
  std::vector<double> empty;
  EXPECT(Percentile(empty, 0.5) == 0.0);
  std::vector<double> one = {7.0};
  EXPECT(Near(Percentile(one, 0.99), 7.0));
}

void TestSpanFile() {
  const auto buffers = MakeTree();
  const char* path = "bench_e2e_trace_test.jsonl";
  EXPECT(WriteJsonl(buffers, path));
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  EXPECT(lines.size() == 9);
  EXPECT(lines[0].find("\"id\":\"0.0\"") != std::string::npos);
  EXPECT(lines[0].find("\"parent\":null") != std::string::npos);
  EXPECT(lines[2].find("\"parent\":\"0.1\"") != std::string::npos);
  EXPECT(lines[8].find("\"parent\":\"1.0\"") != std::string::npos);
  EXPECT(lines[8].find("\"evaluator\":\"join-index\"") != std::string::npos);
  std::remove(path);
}

}  // namespace
}  // namespace sargus::e2e

int main() {
  using namespace sargus::e2e;
  TestSelfTimes();
  TestDurations();
  TestPercentiles();
  TestSpanFile();
  if (failures == 0) std::printf("trace_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
