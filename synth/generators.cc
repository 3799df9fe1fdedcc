#include "synth/generators.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace sargus {
namespace {

Status ValidateBase(const SocialGraphSpec& spec) {
  if (spec.num_nodes == 0) {
    return Status::InvalidArgument("generator: num_nodes must be > 0");
  }
  if (spec.labels.empty()) {
    return Status::InvalidArgument("generator: label alphabet is empty");
  }
  if (spec.reciprocity < 0.0 || spec.reciprocity > 1.0) {
    return Status::InvalidArgument("generator: reciprocity outside [0,1]");
  }
  return OkStatus();
}

/// Creates the nodes, interns the alphabet, assigns attributes.
SocialGraph MakeBase(const SocialGraphSpec& spec, Rng& rng) {
  SocialGraph g;
  for (const std::string& label : spec.labels) g.labels().Intern(label);
  for (size_t i = 0; i < spec.num_nodes; ++i) g.AddNode();
  if (spec.assign_attributes) {
    for (NodeId v = 0; v < spec.num_nodes; ++v) {
      (void)g.SetAttribute(v, "age",
                           13 + static_cast<int64_t>(rng.NextBounded(68)));
      (void)g.SetAttribute(v, "trust",
                           static_cast<int64_t>(rng.NextBounded(101)));
    }
  }
  return g;
}

/// Interned ids of the spec's alphabet (duplicates in the spec map to
/// the same id, so a random pick is always a valid label).
std::vector<LabelId> AlphabetIds(const SocialGraph& g,
                                 const SocialGraphSpec& spec) {
  std::vector<LabelId> ids;
  ids.reserve(spec.labels.size());
  for (const std::string& label : spec.labels) {
    ids.push_back(g.labels().Lookup(label));
  }
  return ids;
}

/// Adds edge u->v with a random label; adds the reverse twin with
/// probability `reciprocity`.
void AddRandomEdge(SocialGraph& g, Rng& rng, const SocialGraphSpec& spec,
                   const std::vector<LabelId>& alphabet, NodeId u, NodeId v) {
  const LabelId label = alphabet[rng.NextBounded(alphabet.size())];
  (void)g.AddEdge(u, v, label);
  if (spec.reciprocity > 0.0 && rng.NextBool(spec.reciprocity)) {
    (void)g.AddEdge(v, u, label);
  }
}

}  // namespace

Result<SocialGraph> GenerateErdosRenyi(const ErdosRenyiSpec& spec) {
  SARGUS_RETURN_IF_ERROR(ValidateBase(spec.base));
  if (spec.avg_out_degree < 0.0) {
    return Status::InvalidArgument("ER: avg_out_degree must be >= 0");
  }
  Rng rng(spec.base.seed);
  SocialGraph g = MakeBase(spec.base, rng);
  const std::vector<LabelId> alphabet = AlphabetIds(g, spec.base);
  const size_t n = spec.base.num_nodes;
  const auto target =
      static_cast<uint64_t>(spec.avg_out_degree * static_cast<double>(n));
  for (uint64_t i = 0; i < target; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (n > 1) {
      while (v == u) v = static_cast<NodeId>(rng.NextBounded(n));
    }
    AddRandomEdge(g, rng, spec.base, alphabet, u, v);
  }
  g.ShrinkToFit();
  return g;
}

Result<SocialGraph> GenerateBarabasiAlbert(const BarabasiAlbertSpec& spec) {
  SARGUS_RETURN_IF_ERROR(ValidateBase(spec.base));
  if (spec.edges_per_node == 0) {
    return Status::InvalidArgument("BA: edges_per_node must be > 0");
  }
  Rng rng(spec.base.seed);
  SocialGraph g = MakeBase(spec.base, rng);
  const std::vector<LabelId> alphabet = AlphabetIds(g, spec.base);
  const size_t n = spec.base.num_nodes;
  const size_t m = spec.edges_per_node;

  // Seed clique-ish core of m0 = min(n, m + 1) nodes in a ring.
  const size_t m0 = std::min(n, m + 1);
  // Preferential attachment endpoint pool: every edge endpoint appears
  // once, so sampling uniformly from the pool is degree-proportional.
  std::vector<NodeId> pool;
  for (size_t i = 0; i < m0 && m0 > 1; ++i) {
    const NodeId u = static_cast<NodeId>(i);
    const NodeId v = static_cast<NodeId>((i + 1) % m0);
    AddRandomEdge(g, rng, spec.base, alphabet, u, v);
    pool.push_back(u);
    pool.push_back(v);
  }
  for (size_t i = m0; i < n; ++i) {
    const NodeId u = static_cast<NodeId>(i);
    std::vector<NodeId> targets;
    for (size_t e = 0; e < m && pool.size() > 0; ++e) {
      const NodeId t = pool[rng.NextBounded(pool.size())];
      if (t == u ||
          std::find(targets.begin(), targets.end(), t) != targets.end()) {
        continue;  // skip duplicates; slightly fewer edges for small pools
      }
      targets.push_back(t);
    }
    for (const NodeId t : targets) {
      AddRandomEdge(g, rng, spec.base, alphabet, u, t);
      pool.push_back(u);
      pool.push_back(t);
    }
  }
  g.ShrinkToFit();
  return g;
}

Result<SocialGraph> GenerateWattsStrogatz(const WattsStrogatzSpec& spec) {
  SARGUS_RETURN_IF_ERROR(ValidateBase(spec.base));
  if (spec.rewire_probability < 0.0 || spec.rewire_probability > 1.0) {
    return Status::InvalidArgument("WS: rewire_probability outside [0,1]");
  }
  if (spec.neighbors_per_side == 0) {
    return Status::InvalidArgument("WS: neighbors_per_side must be > 0");
  }
  Rng rng(spec.base.seed);
  SocialGraph g = MakeBase(spec.base, rng);
  const std::vector<LabelId> alphabet = AlphabetIds(g, spec.base);
  const size_t n = spec.base.num_nodes;
  for (size_t u = 0; u < n; ++u) {
    for (size_t j = 1; j <= spec.neighbors_per_side; ++j) {
      NodeId v = static_cast<NodeId>((u + j) % n);
      if (rng.NextBool(spec.rewire_probability) && n > 1) {
        v = static_cast<NodeId>(rng.NextBounded(n));
        while (v == u) v = static_cast<NodeId>(rng.NextBounded(n));
      }
      if (v == static_cast<NodeId>(u)) continue;  // n == 1 or tiny rings
      AddRandomEdge(g, rng, spec.base, alphabet, static_cast<NodeId>(u), v);
    }
  }
  g.ShrinkToFit();
  return g;
}

ZipfSampler::ZipfSampler(uint64_t num_items, double theta, uint64_t seed)
    : num_items_(num_items == 0 ? 1 : num_items),
      // theta == 1 makes alpha blow up; 0.9999 is indistinguishable in
      // practice and keeps every quantity finite.
      theta_(std::clamp(theta, 0.0, 0.9999)),
      rng_(seed) {
  zetan_ = 0.0;
  double zeta2 = 0.0;
  for (uint64_t i = 1; i <= num_items_; ++i) {
    const double term = 1.0 / std::pow(static_cast<double>(i), theta_);
    zetan_ += term;
    if (i == 2) zeta2 = zetan_;
  }
  if (num_items_ == 1) zeta2 = zetan_;
  alpha_ = 1.0 / (1.0 - theta_);
  const double n = static_cast<double>(num_items_);
  eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta_)) / (1.0 - zeta2 / zetan_);
  if (!std::isfinite(eta_)) eta_ = 1.0;  // num_items_ <= 2 or theta == 0
}

uint64_t ZipfSampler::Next() {
  const double u = rng_.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const double n = static_cast<double>(num_items_);
  const uint64_t rank = static_cast<uint64_t>(
      n * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= num_items_ ? num_items_ - 1 : rank;
}

double ZipfSampler::Probability(uint64_t rank) const {
  if (rank >= num_items_) return 0.0;
  return 1.0 / (std::pow(static_cast<double>(rank + 1), theta_) * zetan_);
}

}  // namespace sargus
