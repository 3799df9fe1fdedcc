#ifndef SARGUS_SHARD_WIRE_H_
#define SARGUS_SHARD_WIRE_H_

/// \file wire.h
/// \brief The versioned router <-> shard protocol: plain PODs + flat
/// vectors, no pointers.
///
/// Every message the ShardRouter exchanges with a ShardEngine is one of
/// the structs below, and every struct has a byte-exact little-endian
/// encoding (Encode/Decode) behind a framed header:
///
///     u32 magic "SGRW" | u32 protocol version | u8 message type | payload
///     | u64 FNV-1a checksum (over every preceding byte)
///
/// In-process the structs are passed directly — serialization is not on
/// the hot path — but the encodings are implemented, round-trip tested,
/// and validated on decode (magic, version, checksum, type, exact
/// length), so the in-process boundary is already a network-ready
/// protocol: promoting a ShardEngine to a remote server means moving
/// bytes, not redesigning messages.
///
/// Stability promise (see docs/ARCHITECTURE.md): the header layout and
/// the meaning of existing fields never change within a protocol
/// version; evolution is additive (append fields, bump
/// kProtocolVersion). A decoder always rejects a version it does not
/// know with kInvalidArgument rather than guessing. Version history:
/// v1 had no trailing checksum and no kErrorFrame; v2 added both (the
/// checksum is what turns a corrupted frame into a clean kInvalidArgument
/// instead of a silently misread message — see the fault-injection
/// transport in shard/transport.h); v3 renumbered the evaluator override
/// byte to the three serving choices (v2 also had DFS and bidirectional
/// values, so a v2 byte means something else under v3); v4 dropped the
/// two override bytes from CheckRequest, since a shard serves one
/// evaluator.
///
/// Identifier convention: node, label, resource, rule and automaton
/// state ids in wire messages are GLOBAL — every shard graph keeps the
/// full node id space and identical dictionaries (graph/subgraph.h),
/// and every shard compiles identical policy snapshots, so a
/// (node, state) frontier entry produced by one shard seeds a walk on
/// any other with no translation.

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "core/automaton.h"

namespace sargus::wire {

inline constexpr uint32_t kMagic = 0x57524753;  // "SGRW", little-endian
inline constexpr uint32_t kProtocolVersion = 4;

enum class MsgType : uint8_t {
  kCheckRequest = 1,
  kCheckReply = 2,
  kBatchCheckRequest = 3,
  kBatchCheckReply = 4,
  kWalkRequest = 5,
  kWalkReply = 6,
  kMutateRequest = 7,
  kMutateReply = 8,
  kErrorFrame = 9,
};

/// The (snapshot_generation, overlay_version) pair identifying the
/// published shard state a reply was produced against.
struct Stamp {
  uint64_t snapshot_generation = 0;
  uint64_t overlay_version = 0;
  bool operator==(const Stamp&) const = default;
};

/// One mid-walk product configuration shipped between shards: the walk
/// paused at `node` in automaton state `state` with `residual_hops`
/// edges of budget left (the sum of max-hops of the remaining steps —
/// derivable from `state` alone, carried explicitly so both sides can
/// cross-check that they compiled the same automaton; a receiver
/// rejects a mismatch, which would mean diverged policy or label
/// dictionaries).
struct FrontierEntry {
  NodeId node = 0;
  uint32_t state = 0;
  uint32_t residual_hops = 0;
  bool operator==(const FrontierEntry&) const = default;
};

/// Residual hop budget per automaton state: the value FrontierEntry
/// carries. residual[s] = sum of max_hops over steps >= StepOf(s),
/// minus the hops already consumed within StepOf(s). Always >= 1 for a
/// live (non-accept) state.
std::vector<uint32_t> ResidualHopBudgets(const HopAutomaton& nfa);

// ---- CheckAccess ----------------------------------------------------------

struct CheckRequest {
  NodeId requester = 0;
  ResourceId resource = 0;
  uint8_t want_witness = 0;
  bool operator==(const CheckRequest&) const = default;
};

struct CheckReply {
  /// sargus StatusCode; non-zero means the request failed and only
  /// `error` is meaningful.
  uint8_t status_code = 0;
  std::string error;
  uint8_t granted = 0;
  uint8_t owner_access = 0;
  uint8_t has_matched_rule = 0;
  RuleId matched_rule = 0;
  uint64_t pairs_visited = 0;
  Stamp stamp;
  std::vector<NodeId> witness;
  bool operator==(const CheckReply&) const = default;
};

struct BatchCheckRequest {
  std::vector<CheckRequest> requests;
  bool operator==(const BatchCheckRequest&) const = default;
};

struct BatchCheckReply {
  /// Positional: replies[i] answers requests[i].
  std::vector<CheckReply> replies;
  bool operator==(const BatchCheckReply&) const = default;
};

// ---- Frontier walks (cross-shard evaluation) ------------------------------

enum class WalkSeed : uint8_t {
  /// Seed the automaton start closure at `owner` (phase one: the walk
  /// that begins at the resource owner on its home shard).
  kOwnerStarts = 0,
  /// Seed the explicit `frontier` (phase two / fallback rounds: resume
  /// configurations another shard exported).
  kFrontier = 1,
};

struct WalkRequest {
  RuleId rule = 0;
  /// Path index within the rule (a rule is a disjunction of paths).
  uint32_t path = 0;
  NodeId requester = 0;
  WalkSeed seed = WalkSeed::kOwnerStarts;
  NodeId owner = 0;
  std::vector<FrontierEntry> frontier;
  bool operator==(const WalkRequest&) const = default;
};

struct WalkReply {
  uint8_t status_code = 0;
  std::string error;
  /// An accepting edge landed on `requester` inside this shard's local
  /// graph — a global grant (local edges are a subset of global edges).
  uint8_t accepted = 0;
  /// Every fresh configuration the walk pushed at a node this shard
  /// does not own — the entry points into other shards. Deduplicated
  /// within one reply by the walk's visited set.
  std::vector<FrontierEntry> exports;
  uint64_t pairs_visited = 0;
  Stamp stamp;
  bool operator==(const WalkReply&) const = default;
};

// ---- Mutations ------------------------------------------------------------

enum class MutateOp : uint8_t {
  kAddEdge = 0,
  kRemoveEdge = 1,
  kAddNode = 2,
};

struct MutateRequest {
  MutateOp op = MutateOp::kAddEdge;
  NodeId src = 0;
  NodeId dst = 0;
  /// kInvalidLabel means `label_name` carries the label instead (the
  /// router always pre-resolves names so ids stay aligned across
  /// shards; the name path serves byte-level callers of HandleFrame).
  LabelId label = kInvalidLabel;
  std::string label_name;
  bool operator==(const MutateRequest&) const = default;
};

struct MutateReply {
  uint8_t status_code = 0;
  std::string error;
  /// The id assigned by kAddNode (kInvalidNode otherwise).
  NodeId new_node = kInvalidNode;
  /// Writer-side stamps after the mutation.
  Stamp stamp;
  bool operator==(const MutateReply&) const = default;
};

// ---- Error frame ----------------------------------------------------------

/// The in-band failure envelope: what a shard (or a transport acting on
/// its behalf) sends when it cannot produce the typed reply a request
/// asked for — an unparseable request frame, an unknown message type, a
/// handler that failed before it knew which reply shape to build. Typed
/// replies still carry their own status_code for ordinary evaluation
/// errors; the error frame exists so even "I could not understand you"
/// travels as a validated wire message instead of an out-of-band C++
/// return.
struct ErrorFrame {
  /// sargus StatusCode; never 0 (an OK error frame is meaningless).
  uint8_t status_code = 0;
  std::string message;
  bool operator==(const ErrorFrame&) const = default;
};

/// The Status an error frame carries.
Status StatusFromErrorFrame(const ErrorFrame& frame);

// ---- Status packing -------------------------------------------------------

uint8_t PackStatus(const Status& status);
Status UnpackStatus(uint8_t code, std::string error);

// ---- Serialization --------------------------------------------------------

std::vector<uint8_t> Encode(const CheckRequest& m);
std::vector<uint8_t> Encode(const CheckReply& m);
std::vector<uint8_t> Encode(const BatchCheckRequest& m);
std::vector<uint8_t> Encode(const BatchCheckReply& m);
std::vector<uint8_t> Encode(const WalkRequest& m);
std::vector<uint8_t> Encode(const WalkReply& m);
std::vector<uint8_t> Encode(const MutateRequest& m);
std::vector<uint8_t> Encode(const MutateReply& m);
std::vector<uint8_t> Encode(const ErrorFrame& m);

/// Decoders validate the frame (magic, known version, matching type)
/// and exact payload length; kInvalidArgument on any mismatch or
/// truncation.
Result<CheckRequest> DecodeCheckRequest(std::span<const uint8_t> bytes);
Result<CheckReply> DecodeCheckReply(std::span<const uint8_t> bytes);
Result<BatchCheckRequest> DecodeBatchCheckRequest(
    std::span<const uint8_t> bytes);
Result<BatchCheckReply> DecodeBatchCheckReply(std::span<const uint8_t> bytes);
Result<WalkRequest> DecodeWalkRequest(std::span<const uint8_t> bytes);
Result<WalkReply> DecodeWalkReply(std::span<const uint8_t> bytes);
Result<MutateRequest> DecodeMutateRequest(std::span<const uint8_t> bytes);
Result<MutateReply> DecodeMutateReply(std::span<const uint8_t> bytes);
Result<ErrorFrame> DecodeErrorFrame(std::span<const uint8_t> bytes);

/// The message type of a framed buffer, after validating magic, version
/// and checksum (but not the payload). kInvalidArgument on any garbage.
Result<MsgType> PeekType(std::span<const uint8_t> bytes);

/// Any wire message, decoded. The frame-dispatch entry point a server
/// loop uses (ShardEngine::HandleFrame); also the surface the wire fuzz
/// suite hammers: for ANY byte string, ParseMessage either returns a
/// fully validated message or a clean kInvalidArgument — it never
/// crashes, never over-allocates, and (checksum) never accepts a
/// mutated frame.
using Message =
    std::variant<CheckRequest, CheckReply, BatchCheckRequest, BatchCheckReply,
                 WalkRequest, WalkReply, MutateRequest, MutateReply,
                 ErrorFrame>;
Result<Message> ParseMessage(std::span<const uint8_t> bytes);

}  // namespace sargus::wire

#endif  // SARGUS_SHARD_WIRE_H_
