#ifndef SARGUS_BENCH_E2E_TRACE_H_
#define SARGUS_BENCH_E2E_TRACE_H_

/// \file trace.h
/// \brief In-memory span recorder for bench_e2e, plus the self-time and
/// percentile helpers its metrics are computed with.
///
/// The benchmark records spans from its own code, around each call it
/// makes into a layer of the library (facade check, view acquisition,
/// read-view check, write submission, router batch, ...). Tracing inside
/// the library is a separate concern; these spans only see layer
/// boundaries the public API exposes.
///
/// Each thread owns one TraceBuffer, so recording takes no lock. A span's
/// parent is an index into the same buffer, and every span of one request
/// carries the same request id. Buffers are written out when the run ends.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <utility>
#include <vector>

namespace sargus::e2e {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds; the time base of every span and latency.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// What a layer reported about the work behind one call.
struct SpanTags {
  /// AccessDecision::evaluator_name (static storage in the library).
  std::string_view evaluator;
  uint64_t generation = 0;
  uint64_t overlay_version = 0;
  uint64_t pairs = 0;
  uint64_t tuples = 0;
  uint64_t line_queries = 0;
};

struct Span {
  /// A string literal: spans are compared by name, never freed.
  const char* name = "";
  uint64_t request = 0;
  /// Index of the parent span in the same buffer; -1 for a root.
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanTags tags;
};

class TraceBuffer {
 public:
  /// Opens a span whose end is set later by Close (roots whose children
  /// are recorded while they are open). Returns its index.
  int32_t Open(const char* name, uint64_t request, int32_t parent,
               int64_t start_ns) {
    spans_.push_back({name, request, parent, start_ns, start_ns, {}});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t span, int64_t end_ns) { spans_[span].end_ns = end_ns; }

  /// Appends a finished span; returns its index.
  int32_t Add(const char* name, uint64_t request, int32_t parent,
              int64_t start_ns, int64_t end_ns, SpanTags tags = {}) {
    spans_.push_back({name, request, parent, start_ns, end_ns, tags});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void Reserve(size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Nearest-rank percentile (q in [0, 1]) of `v`, which it sorts. 0 for
/// an empty sample.
inline double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// Durations (µs) of every span named `name`.
inline std::vector<double> DurationsUs(const std::vector<TraceBuffer>& buffers,
                                       std::string_view name) {
  std::vector<double> out;
  for (const TraceBuffer& b : buffers) {
    for (const Span& s : b.spans()) {
      if (name == s.name) out.push_back(1e-3 * double(s.end_ns - s.start_ns));
    }
  }
  return out;
}

/// Self times (µs) of every span named `name`: its duration minus the
/// part of its interval that its direct children cover. Overlapping
/// children are merged, so concurrent children are not counted twice.
inline std::vector<double> SelfTimesUs(const std::vector<TraceBuffer>& buffers,
                                       std::string_view name) {
  std::vector<double> out;
  for (const TraceBuffer& b : buffers) {
    const std::vector<Span>& spans = b.spans();
    std::vector<std::vector<int32_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        children[spans[i].parent].push_back(static_cast<int32_t>(i));
      }
    }
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (name != s.name) continue;
      cover.clear();
      for (int32_t c : children[i]) {
        const int64_t lo = std::max(spans[c].start_ns, s.start_ns);
        const int64_t hi = std::min(spans[c].end_ns, s.end_ns);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
      std::sort(cover.begin(), cover.end());
      int64_t covered = 0;
      int64_t reach = s.start_ns;
      for (const auto& [lo, hi] : cover) {
        const int64_t from = std::max(lo, reach);
        if (hi > from) {
          covered += hi - from;
          reach = hi;
        }
      }
      out.push_back(1e-3 * double(s.end_ns - s.start_ns - covered));
    }
  }
  return out;
}

/// Writes every span as one JSON object per line. Span ids are
/// "<buffer>.<index>", so parents resolve across the merged file.
inline bool WriteJsonl(const std::vector<TraceBuffer>& buffers,
                       const char* path) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  for (size_t b = 0; b < buffers.size(); ++b) {
    const std::vector<Span>& spans = buffers[b].spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "{\"id\":\"%zu.%zu\",\"name\":\"%s\",\"request\":%llu,",
                   b, i, s.name, static_cast<unsigned long long>(s.request));
      if (s.parent >= 0) {
        std::fprintf(f, "\"parent\":\"%zu.%d\",", b, s.parent);
      } else {
        std::fprintf(f, "\"parent\":null,");
      }
      std::fprintf(f, "\"start_ns\":%lld,\"end_ns\":%lld",
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      const SpanTags& t = s.tags;
      if (!t.evaluator.empty()) {
        std::fprintf(f, ",\"evaluator\":\"%.*s\"",
                     static_cast<int>(t.evaluator.size()), t.evaluator.data());
      }
      if (t.generation != 0 || t.overlay_version != 0) {
        std::fprintf(f, ",\"generation\":%llu,\"overlay_version\":%llu",
                     static_cast<unsigned long long>(t.generation),
                     static_cast<unsigned long long>(t.overlay_version));
      }
      if (t.pairs != 0 || t.tuples != 0 || t.line_queries != 0) {
        std::fprintf(f, ",\"pairs\":%llu,\"tuples\":%llu,\"line_queries\":%llu",
                     static_cast<unsigned long long>(t.pairs),
                     static_cast<unsigned long long>(t.tuples),
                     static_cast<unsigned long long>(t.line_queries));
      }
      std::fputs("}\n", f);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace sargus::e2e

#endif  // SARGUS_BENCH_E2E_TRACE_H_
