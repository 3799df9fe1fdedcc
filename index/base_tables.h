#ifndef SARGUS_INDEX_BASE_TABLES_H_
#define SARGUS_INDEX_BASE_TABLES_H_

/// \file base_tables.h
/// \brief Per-label relations over line vertices — the base tables of the
/// paper's join-based evaluation (§3.3).
///
/// For each (label, orientation) the table lists every line vertex with
/// that label as a (line vertex, tail, head) row, sorted by tail. Only
/// FaithfulJoinEvaluator (which owns its tables) scans these and joins
/// consecutive steps; the serving engine never builds them. The
/// selectivity bench reads row counts to show the tables shrink as the
/// label alphabet grows.

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/line_graph.h"

namespace sargus {

class BaseTables {
 public:
  struct Row {
    LineVertexId line = 0;
    NodeId tail = 0;
    NodeId head = 0;
  };

  BaseTables() = default;

  static BaseTables Build(const LineGraph& lg);

  /// Rows for `label` in the given orientation; empty for unknown labels.
  std::span<const Row> Rows(LabelId label, bool backward = false) const;

  size_t NumOrientedTables() const { return tables_.size(); }

  size_t MemoryBytes() const {
    size_t bytes = tables_.capacity() * sizeof(std::vector<Row>);
    for (const auto& t : tables_) bytes += t.capacity() * sizeof(Row);
    return bytes;
  }

 private:
  // Index 2*label + (backward ? 1 : 0).
  std::vector<std::vector<Row>> tables_;
};

}  // namespace sargus

#endif  // SARGUS_INDEX_BASE_TABLES_H_
