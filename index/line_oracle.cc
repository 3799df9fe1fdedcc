#include "index/line_oracle.h"

#include <utility>

namespace sargus {

Result<LineReachabilityOracle> LineReachabilityOracle::Build(
    const LineGraph& lg) {
  LineReachabilityOracle oracle;
  oracle.scc_ = ComputeScc(lg);
  oracle.dag_ = BuildCondensation(oracle.scc_, lg);
  auto two_hop = TwoHopLabeling::Build(oracle.dag_);
  if (!two_hop.ok()) return two_hop.status();
  oracle.two_hop_ = std::move(*two_hop);
  return oracle;
}

bool LineReachabilityOracle::Reachable(LineVertexId u, LineVertexId v) const {
  if (u >= scc_.component_of.size() || v >= scc_.component_of.size()) {
    return false;
  }
  return ComponentReachable(scc_.component_of[u], scc_.component_of[v]);
}

}  // namespace sargus
