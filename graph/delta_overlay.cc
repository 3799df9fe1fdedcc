#include "graph/delta_overlay.h"

#include <algorithm>

namespace sargus {

bool DeltaOverlay::StageAdd(NodeId src, NodeId dst, LabelId label) {
  if (!added_.insert(EdgeTriple{src, dst, label}).second) return false;
  added_out_[AdjKey(src, label)].push_back(dst);
  added_in_[AdjKey(dst, label)].push_back(src);
  ++version_;
  return true;
}

bool DeltaOverlay::UnstageAdd(NodeId src, NodeId dst, LabelId label) {
  if (added_.erase(EdgeTriple{src, dst, label}) == 0) return false;
  AdjErase(added_out_, src, label, dst);
  AdjErase(added_in_, dst, label, src);
  ++version_;
  return true;
}

bool DeltaOverlay::StageRemove(NodeId src, NodeId dst, LabelId label) {
  if (!removed_.insert(EdgeTriple{src, dst, label}).second) return false;
  ++version_;
  return true;
}

bool DeltaOverlay::UnstageRemove(NodeId src, NodeId dst, LabelId label) {
  if (removed_.erase(EdgeTriple{src, dst, label}) == 0) return false;
  ++version_;
  return true;
}

void DeltaOverlay::Clear() {
  if (!empty()) ++version_;
  added_.clear();
  removed_.clear();
  added_out_.clear();
  added_in_.clear();
  staged_nodes_ = 0;
}

DeltaOverlay DeltaOverlay::Since(const DeltaOverlay& frozen) const {
  DeltaOverlay out;
  for (const EdgeTriple& t : added_) {
    if (!frozen.added_.contains(t)) out.StageAdd(t.src, t.dst, t.label);
  }
  for (const EdgeTriple& t : frozen.removed_) {
    if (!removed_.contains(t)) out.StageAdd(t.src, t.dst, t.label);
  }
  for (const EdgeTriple& t : removed_) {
    if (!frozen.removed_.contains(t)) out.StageRemove(t.src, t.dst, t.label);
  }
  for (const EdgeTriple& t : frozen.added_) {
    if (!added_.contains(t)) out.StageRemove(t.src, t.dst, t.label);
  }
  out.staged_nodes_ = staged_nodes_ - frozen.staged_nodes_;
  out.version_ = version_;
  return out;
}

void DeltaOverlay::AdjErase(AdjMap& map, NodeId node, LabelId label,
                            NodeId other) {
  auto it = map.find(AdjKey(node, label));
  if (it == map.end()) return;
  std::vector<NodeId>& vec = it->second;
  auto pos = std::find(vec.begin(), vec.end(), other);
  if (pos != vec.end()) {
    *pos = vec.back();
    vec.pop_back();
  }
  if (vec.empty()) map.erase(it);
}

size_t DeltaOverlay::MemoryBytes() const {
  // Rough: hash nodes + adjacency vectors; good enough for benches.
  size_t bytes =
      (added_.size() + removed_.size()) * (sizeof(EdgeTriple) + 16);
  for (const auto& [k, v] : added_out_) {
    bytes += sizeof(k) + v.capacity() * sizeof(NodeId) + 16;
  }
  for (const auto& [k, v] : added_in_) {
    bytes += sizeof(k) + v.capacity() * sizeof(NodeId) + 16;
  }
  return bytes;
}

}  // namespace sargus
