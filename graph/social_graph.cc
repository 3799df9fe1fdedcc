#include "graph/social_graph.h"

#include <algorithm>
#include <limits>

#include "common/parallel.h"
#include "graph/csr.h"

namespace sargus {

namespace {

constexpr int64_t kUnsetAttr = std::numeric_limits<int64_t>::min();

/// Marks an empty slot of the edge lookup table.
constexpr EdgeId kEmptySlot = std::numeric_limits<EdgeId>::max();

/// Smallest table capacity that holds `live` ids at most 3/4 full.
size_t LookupCapacityFor(size_t live) {
  if (live == 0) return 0;
  size_t capacity = 16;
  while (live * 4 > capacity * 3) capacity *= 2;
  return capacity;
}

}  // namespace

uint16_t NameDictionary::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  // 0xFFFF is the invalid sentinel; refuse to mint it as a real id.
  if (names_.size() >= 0xFFFF) return uint16_t{0xFFFF};
  const uint16_t id = static_cast<uint16_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

uint16_t NameDictionary::Lookup(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? uint16_t{0xFFFF} : it->second;
}

const std::string& NameDictionary::ToString(uint16_t id) const {
  return names_[id];
}

uint64_t SocialGraph::EdgeTripleHash(NodeId src, NodeId dst, LabelId label) {
  // The murmur3 64-bit finalizer, so the low bits a power-of-two mask
  // keeps are well mixed.
  uint64_t h = (uint64_t{src} << 32 | dst) ^
               (uint64_t{label} * 0x9e3779b97f4a7c15ULL);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

NodeId SocialGraph::AddNode() { return AddNodes(1); }

NodeId SocialGraph::AddNodes(size_t count) {
  Thaw();
  const NodeId id = static_cast<NodeId>(num_nodes_);
  num_nodes_ += count;
  return id;
}

Status SocialGraph::SetAttribute(NodeId node, const std::string& name,
                                 int64_t value) {
  if (node >= num_nodes_) {
    return Status::InvalidArgument("SetAttribute: node out of range");
  }
  if (value == kUnsetAttr) {
    return Status::InvalidArgument("SetAttribute: INT64_MIN is reserved");
  }
  const AttrId attr = attrs_.Intern(name);
  if (attr == kInvalidAttr) {
    return Status::ResourceExhausted("SetAttribute: attribute dictionary full");
  }
  if (attr >= attr_columns_.size()) {
    attr_columns_.resize(attr + 1);
  }
  // Columns trail the node counter when nodes were appended in bulk;
  // grow on demand so the write below stays in bounds.
  if (attr_columns_[attr].size() < num_nodes_) {
    attr_columns_[attr].resize(num_nodes_, kUnsetAttr);
  }
  attr_columns_[attr][node] = value;
  return OkStatus();
}

std::optional<int64_t> SocialGraph::GetAttribute(NodeId node,
                                                 AttrId attr) const {
  // Bound by column size, not the node counter: columns never shrink,
  // so this read stays safe (and "unset") for nodes appended — even
  // concurrently by a compaction fold — after the column last grew.
  if (attr >= attr_columns_.size()) return std::nullopt;
  const std::vector<int64_t>& col = attr_columns_[attr];
  if (node >= col.size()) return std::nullopt;
  const int64_t v = col[node];
  if (v == kUnsetAttr) return std::nullopt;
  return v;
}

std::optional<int64_t> SocialGraph::GetAttribute(
    NodeId node, const std::string& name) const {
  const AttrId attr = attrs_.Lookup(name);
  if (attr == kInvalidAttr) return std::nullopt;
  return GetAttribute(node, attr);
}

Result<EdgeId> SocialGraph::AddEdge(NodeId src, NodeId dst,
                                    const std::string& label) {
  const LabelId id = labels_.Intern(label);
  if (id == kInvalidLabel) {
    return Status::ResourceExhausted("AddEdge: label dictionary full");
  }
  return AddEdge(src, dst, id);
}

Result<EdgeId> SocialGraph::AddEdge(NodeId src, NodeId dst, LabelId label) {
  if (src >= num_nodes_ || dst >= num_nodes_) {
    return Status::InvalidArgument("AddEdge: endpoint out of range");
  }
  if (label >= labels_.size()) {
    return Status::InvalidArgument("AddEdge: unknown label id");
  }
  if (csr_ != nullptr) {
    // A coalesced add changes nothing, so it leaves the graph frozen.
    if (const auto found = FindEdge(src, dst, label)) return *found;
    Thaw();
  }
  // Grow first so the probe below lands in the table the id stays in.
  if ((num_live_edges_ + 1) * 4 > edge_lookup_.size() * 3) {
    RehashEdgeLookup(LookupCapacityFor(num_live_edges_ + 1));
  }
  const size_t slot = ProbeSlot(src, dst, label);
  if (edge_lookup_[slot] != kEmptySlot) return edge_lookup_[slot];
  if (slots_.size() >= kEmptySlot) {
    return Status::ResourceExhausted("AddEdge: edge slots exhausted");
  }
  // label < labels_.size() <= 0xFFFF, so it is never the tombstone.
  const EdgeId id = static_cast<EdgeId>(slots_.size());
  slots_.push_back(Slot{src, dst, label});
  ++num_live_edges_;
  edge_lookup_[slot] = id;
  return id;
}

std::optional<EdgeId> SocialGraph::FindEdge(NodeId src, NodeId dst,
                                            LabelId label) const {
  if (csr_ != nullptr) {
    // The label's slice of src's out-range holds its targets ascending,
    // and a frozen edge's id is its position in the out-side.
    if (src >= csr_->NumNodes()) return std::nullopt;
    const std::span<const NodeId> dsts = csr_->OutWithLabel(src, label);
    const auto it = std::lower_bound(dsts.begin(), dsts.end(), dst);
    if (it == dsts.end() || *it != dst) return std::nullopt;
    return static_cast<EdgeId>(&*it - csr_->out_.ids.data());
  }
  if (edge_lookup_.empty()) return std::nullopt;
  const EdgeId id = edge_lookup_[ProbeSlot(src, dst, label)];
  if (id == kEmptySlot) return std::nullopt;
  return id;
}

Status SocialGraph::RemoveEdge(EdgeId edge) {
  if (!IsLiveEdge(edge)) {
    return Status::NotFound("RemoveEdge: no live edge in slot");
  }
  Thaw();
  const Slot& rec = slots_[edge];
  const size_t mask = edge_lookup_.size() - 1;
  size_t hole = ProbeSlot(rec.src, rec.dst, rec.label);
  // Backward shift: pull each later member of the probe run into the
  // hole unless its home slot lies cyclically in (hole, j], which keeps
  // every remaining id reachable from its home without tombstones.
  for (size_t j = (hole + 1) & mask; edge_lookup_[j] != kEmptySlot;
       j = (j + 1) & mask) {
    const Slot& moved = slots_[edge_lookup_[j]];
    const size_t home =
        EdgeTripleHash(moved.src, moved.dst, moved.label) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      edge_lookup_[hole] = edge_lookup_[j];
      hole = j;
    }
  }
  edge_lookup_[hole] = kEmptySlot;
  slots_[edge].label = kInvalidLabel;  // the probes above read it live
  --num_live_edges_;
  return OkStatus();
}

size_t SocialGraph::ProbeSlot(NodeId src, NodeId dst, LabelId label) const {
  const size_t mask = edge_lookup_.size() - 1;
  for (size_t i = EdgeTripleHash(src, dst, label) & mask;; i = (i + 1) & mask) {
    const EdgeId id = edge_lookup_[i];
    if (id == kEmptySlot) return i;
    const Slot& e = slots_[id];
    if (e.src == src && e.dst == dst && e.label == label) return i;
  }
}

void SocialGraph::RehashEdgeLookup(size_t capacity) {
  edge_lookup_.assign(capacity, kEmptySlot);
  const size_t mask = capacity - 1;
  for (EdgeId e = 0; e < slots_.size(); ++e) {
    const Slot& rec = slots_[e];
    if (rec.label == kInvalidLabel) continue;
    // Live triples are distinct, so the first empty slot is the place.
    size_t i = EdgeTripleHash(rec.src, rec.dst, rec.label) & mask;
    while (edge_lookup_[i] != kEmptySlot) i = (i + 1) & mask;
    edge_lookup_[i] = e;
  }
}

Edge SocialGraph::FrozenEdge(EdgeId edge) const {
  const std::vector<uint32_t>& offsets = csr_->out_.offsets;
  // The source is the node whose out-range holds position `edge`: the
  // last node whose range starts at or before it.
  const auto src = static_cast<NodeId>(
      std::upper_bound(offsets.begin(), offsets.end(), edge) -
      offsets.begin() - 1);
  return Edge{src, csr_->out_.ids[edge], csr_->out_.labels[edge]};
}

void SocialGraph::Freeze() {
  if (csr_ != nullptr) return;
  csr_ = std::make_shared<const CsrSnapshot>(CsrSnapshot::Build(*this));
  // Swap, not clear(): only giving up a buffer frees its memory.
  decltype(slots_)().swap(slots_);
  std::vector<EdgeId>().swap(edge_lookup_);
}

Status SocialGraph::FreezeOver(std::shared_ptr<const CsrSnapshot> csr) {
  // A label past the dictionary would be an edge no lookup can name
  // (or, at kInvalidLabel, a live edge read as dead once thawed). Each
  // chunk takes the largest label of its share of the label column, a
  // loop without a branch.
  const size_t entries = csr->NumEdges();
  const LabelId* labels = csr->out_.labels.data();
  const size_t chunks = NumChunks(entries);
  std::vector<LabelId> largest(chunks, 0);
  ParallelFor(chunks, [&](size_t c) {
    LabelId top = 0;
    for (size_t i = entries * c / chunks; i < entries * (c + 1) / chunks; ++i) {
      top = std::max(top, labels[i]);
    }
    largest[c] = top;
  });
  if (entries > 0 &&
      *std::max_element(largest.begin(), largest.end()) >= labels_.size()) {
    return Status::InvalidArgument("FreezeOver: csr entry label out of range");
  }
  num_nodes_ = csr->NumNodes();
  num_live_edges_ = entries;
  csr_ = std::move(csr);
  decltype(slots_)().swap(slots_);
  std::vector<EdgeId>().swap(edge_lookup_);
  return OkStatus();
}

void SocialGraph::ReserveEdges(size_t count) {
  const size_t capacity = LookupCapacityFor(num_live_edges_ + count);
  if (csr_ == nullptr) {
    slots_.reserve(slots_.size() + count);
    if (capacity > edge_lookup_.size()) RehashEdgeLookup(capacity);
    return;
  }
  const std::shared_ptr<const CsrSnapshot> csr = std::move(csr_);
  slots_.reserve(num_live_edges_ + count);
  slots_.resize(num_live_edges_);  // unwritten: the ranges fill every slot
  // Slot e is the e-th out-entry, so each node range writes its own
  // slots [offsets[begin], offsets[end]).
  const size_t n = csr->NumNodes();
  const std::vector<uint32_t>& offsets = csr->out_.offsets;
  const size_t chunks = NumChunks(num_live_edges_);
  Slot* slots = slots_.data();
  ParallelFor(chunks, [&](size_t c) {
    for (size_t v = n * c / chunks; v < n * (c + 1) / chunks; ++v) {
      for (uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        slots[i] = Slot{static_cast<NodeId>(v), csr->out_.ids[i],
                        csr->out_.labels[i]};
      }
    }
  });
  RehashEdgeLookup(capacity);
}

size_t SocialGraph::MemoryBytes() const {
  size_t bytes = slots_.capacity() * sizeof(Slot);
  if (csr_ != nullptr) bytes += csr_->MemoryBytes();
  for (const auto& col : attr_columns_) {
    bytes += col.capacity() * sizeof(int64_t);
  }
  bytes += edge_lookup_.capacity() * sizeof(EdgeId);
  return bytes;
}

}  // namespace sargus
