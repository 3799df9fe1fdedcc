#ifndef SARGUS_COMMON_TYPES_H_
#define SARGUS_COMMON_TYPES_H_

/// \file types.h
/// \brief Fundamental identifier types shared by every sargus layer.
///
/// All identifiers are dense zero-based indices into per-container arrays;
/// they are plain integers (not strong types) so they index vectors directly
/// and pack tightly into index structures.

#include <cstdint>
#include <limits>

namespace sargus {

/// A vertex of the social graph (a user).
using NodeId = uint32_t;

/// A slot in SocialGraph's edge table. Slots survive RemoveEdge as
/// tombstones so EdgeIds stay stable across mutations.
using EdgeId = uint32_t;

/// An interned relationship label ("friend", "colleague", ...).
using LabelId = uint16_t;

/// An interned node-attribute name ("age", ...).
using AttrId = uint16_t;

/// A vertex of the line graph: one (edge, orientation) pair.
using LineVertexId = uint32_t;

/// A protected resource registered in a PolicyStore.
using ResourceId = uint32_t;

/// An access rule attached to a resource.
using RuleId = uint32_t;

/// Sentinel for "no such label" (LabelDictionary::Lookup miss), and the
/// label of a dead SocialGraph edge slot.
inline constexpr LabelId kInvalidLabel = std::numeric_limits<LabelId>::max();

/// Sentinel for "no such attribute".
inline constexpr AttrId kInvalidAttr = std::numeric_limits<AttrId>::max();

/// Sentinel node (used for unset parents in traversals).
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Sentinel line vertex.
inline constexpr LineVertexId kInvalidLineVertex =
    std::numeric_limits<LineVertexId>::max();

}  // namespace sargus

#endif  // SARGUS_COMMON_TYPES_H_
