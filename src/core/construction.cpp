#include "core/construction.h"

#include <algorithm>
#include <cmath>

#include "graph/graph_builder.h"
#include "util/require.h"

namespace p2p::core {

namespace {

// Runs in the first member initializer, so a rejected space is refused
// before the sampler table and the per-position link lists are built.
metric::Space checked_space(metric::Space space) {
  util::require(space.one_dimensional(),
                "DynamicOverlay: needs a line or a ring, not a torus");
  util::require(space.size() >= 2, "DynamicOverlay: space must have >= 2 points");
  return space;
}

}  // namespace

DynamicOverlay::DynamicOverlay(metric::Space space, ConstructionConfig cfg)
    : space_(checked_space(space)),
      config_(cfg),
      sampler_(space_, cfg.exponent),
      out_links_(space_.size()),
      in_links_(space_.size()) {
  util::require(config_.long_links >= 1, "DynamicOverlay: long_links must be >= 1");
}

bool DynamicOverlay::occupied(metric::Point p) const noexcept {
  return space_.contains(p) && members_.contains(p);
}

metric::Point DynamicOverlay::nearest_member(metric::Point p,
                                             metric::Point exclude) const noexcept {
  metric::Point best = -1;
  metric::Distance best_d = 0;
  const auto consider = [&](metric::Point cand) {
    if (cand == exclude) return;
    const metric::Distance d = space_.distance(cand, p);
    if (best < 0 || d < best_d || (d == best_d && cand < best)) {
      best = cand;
      best_d = d;
    }
  };
  // The nearest member is adjacent to p in the ordered member set: check the
  // two neighbours of the insertion point (three when excluding), plus the
  // wraparound extremes on a ring.
  auto it = members_.lower_bound(p);
  auto fwd = it;
  for (int i = 0; i < 2 && fwd != members_.end(); ++i, ++fwd) consider(*fwd);
  auto bwd = it;
  for (int i = 0; i < 2 && bwd != members_.begin(); ++i) consider(*--bwd);
  if (space_.kind() == metric::Space::Kind::kRing && !members_.empty()) {
    consider(*members_.begin());
    consider(*members_.rbegin());
    if (members_.size() > 1) {
      consider(*std::next(members_.begin()));
      consider(*std::prev(members_.end(), 2));
    }
  }
  return best;
}

metric::Point DynamicOverlay::successor(metric::Point p) const noexcept {
  if (members_.empty()) return -1;
  auto it = members_.upper_bound(p);
  if (it != members_.end()) return *it;
  if (space_.kind() == metric::Space::Kind::kRing) return *members_.begin();
  return -1;
}

metric::Point DynamicOverlay::predecessor(metric::Point p) const noexcept {
  if (members_.empty()) return -1;
  auto it = members_.lower_bound(p);
  if (it != members_.begin()) return *std::prev(it);
  if (space_.kind() == metric::Space::Kind::kRing) return *members_.rbegin();
  return -1;
}

metric::Point DynamicOverlay::sample_member(util::Rng& rng, metric::Point from,
                                            metric::Point exclude) const {
  const metric::Point ideal = sampler_.sample_target(rng, from);
  if (ideal != from && ideal != exclude && members_.contains(ideal)) return ideal;
  // Snap to the closest occupied point — §5's basin of attraction.
  metric::Point snapped = nearest_member(ideal, /*exclude=*/from);
  if (snapped == exclude) {
    // Rare: the snap landed on the excluded node; take the nearest member
    // that is neither `from` nor `exclude` by checking around both.
    metric::Point best = -1;
    metric::Distance best_d = 0;
    for (metric::Point m : members_) {
      if (m == from || m == exclude) continue;
      const metric::Distance d = space_.distance(m, ideal);
      if (best < 0 || d < best_d) {
        best = m;
        best_d = d;
      }
    }
    snapped = best;
  }
  return snapped;
}

void DynamicOverlay::add_long_link(metric::Point from, metric::Point to) {
  out_links_[static_cast<std::size_t>(from)].push_back({to, birth_counter_++});
  in_links_[static_cast<std::size_t>(to)].push_back(from);
}

void DynamicOverlay::erase_in_record(metric::Point target, metric::Point from) {
  auto& in = in_links_[static_cast<std::size_t>(target)];
  const auto it = std::find(in.begin(), in.end(), from);
  if (it != in.end()) {
    *it = in.back();
    in.pop_back();
  }
}

void DynamicOverlay::remove_long_link_at(metric::Point from, std::size_t index) {
  auto& out = out_links_[static_cast<std::size_t>(from)];
  const metric::Point target = out[index].target;
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(index));
  erase_in_record(target, from);
}

bool DynamicOverlay::offer_in_link(metric::Point u, metric::Point v, util::Rng& rng) {
  if (config_.replace_policy == ReplacePolicy::kNever) return false;
  auto& links = out_links_[static_cast<std::size_t>(u)];
  const double r = config_.exponent;
  const double p_new =
      std::pow(static_cast<double>(space_.distance(u, v)), -r);

  if (links.size() < config_.long_links) {
    // Below design degree (early bootstrap): take the link outright.
    add_long_link(u, v);
    return true;
  }

  double sum = 0.0;
  for (const LinkRecord& rec : links) {
    sum += std::pow(static_cast<double>(space_.distance(u, rec.target)), -r);
  }
  // Accept with probability p_{k+1} / Σ_{j=1..k+1} p_j.
  if (!rng.next_bool(p_new / (sum + p_new))) return false;

  std::size_t victim = 0;
  if (config_.replace_policy == ReplacePolicy::kPowerLaw) {
    // Victim i with probability p_i / Σ_{j=1..k} p_j.
    double pick = rng.next_double() * sum;
    for (std::size_t i = 0; i < links.size(); ++i) {
      const double w =
          std::pow(static_cast<double>(space_.distance(u, links[i].target)), -r);
      if (pick < w) {
        victim = i;
        break;
      }
      pick -= w;
      victim = i;  // FP guard: fall back to the last link
    }
  } else {  // kOldest
    victim = 0;
    for (std::size_t i = 1; i < links.size(); ++i) {
      if (links[i].birth < links[victim].birth) victim = i;
    }
  }
  const metric::Point old_target = links[victim].target;
  erase_in_record(old_target, u);
  links[victim] = {v, birth_counter_++};
  in_links_[static_cast<std::size_t>(v)].push_back(u);
  return true;
}

void DynamicOverlay::join(metric::Point p, util::Rng& rng) {
  util::require(space_.contains(p), "join: position outside the space");
  util::require(!members_.contains(p), "join: position already occupied");

  if (!members_.empty()) {
    // (1) Outgoing links: ℓ draws from the ideal distribution, snapped.
    for (std::size_t k = 0; k < config_.long_links; ++k) {
      const metric::Point target = sample_member(rng, p, /*exclude=*/-1);
      if (target >= 0) add_long_link(p, target);
    }
    // (2) Incoming links: Poisson(ℓ) existing nodes get the chance to
    // redirect one of their links to the newcomer.
    const int requests = util::poisson_sample(rng, static_cast<double>(config_.long_links));
    for (int k = 0; k < requests; ++k) {
      const metric::Point asked = sample_member(rng, p, /*exclude=*/-1);
      if (asked >= 0) offer_in_link(asked, p, rng);
    }
  }
  members_.insert(p);
}

void DynamicOverlay::leave(metric::Point p, util::Rng& rng) {
  util::require(occupied(p), "leave: position not occupied");
  members_.erase(p);  // remove first so redraws cannot pick p again

  // In-neighbours redraw the lost link immediately (§5 regeneration).
  auto in = in_links_[static_cast<std::size_t>(p)];  // copy: mutation below
  for (const metric::Point u : in) {
    auto& out = out_links_[static_cast<std::size_t>(u)];
    const auto it = std::find_if(out.begin(), out.end(), [&](const LinkRecord& rec) {
      return rec.target == p;
    });
    if (it == out.end()) continue;  // duplicate in-record already handled
    out.erase(it);
    if (members_.size() > 1) {
      const metric::Point fresh = sample_member(rng, u, /*exclude=*/p);
      if (fresh >= 0 && fresh != u) add_long_link(u, fresh);
    }
  }
  in_links_[static_cast<std::size_t>(p)].clear();

  // Dismantle the departing node's own links.
  for (const LinkRecord& rec : out_links_[static_cast<std::size_t>(p)]) {
    erase_in_record(rec.target, p);
  }
  out_links_[static_cast<std::size_t>(p)].clear();
}

void DynamicOverlay::crash(metric::Point p) {
  util::require(occupied(p), "crash: position not occupied");
  members_.erase(p);
  // The node's own state dies with it.
  for (const LinkRecord& rec : out_links_[static_cast<std::size_t>(p)]) {
    erase_in_record(rec.target, p);
  }
  out_links_[static_cast<std::size_t>(p)].clear();
  // Links *to* p stay behind, dangling, until repair() or rebuild.
}

std::size_t DynamicOverlay::dangling_count() const noexcept {
  std::size_t dangling = 0;
  for (const metric::Point p : members_) {
    for (const LinkRecord& rec : out_links_[static_cast<std::size_t>(p)]) {
      if (!members_.contains(rec.target)) ++dangling;
    }
  }
  return dangling;
}

std::size_t DynamicOverlay::repair_node(metric::Point p, util::Rng& rng) {
  util::require(occupied(p), "repair_node: position not occupied");
  std::size_t repaired = 0;
  auto& out = out_links_[static_cast<std::size_t>(p)];
  for (auto& rec : out) {
    if (members_.contains(rec.target)) continue;
    const metric::Point fresh = sample_member(rng, p, /*exclude=*/-1);
    if (fresh >= 0 && fresh != p) {
      // The dead target keeps no in-record (cleared on crash), so only the
      // fresh target's reverse index needs an update.
      rec = {fresh, birth_counter_++};
      in_links_[static_cast<std::size_t>(fresh)].push_back(p);
      ++repaired;
    }
  }
  return repaired;
}

std::size_t DynamicOverlay::repair(util::Rng& rng) {
  std::size_t repaired = 0;
  for (const metric::Point p : members_) {
    repaired += repair_node(p, rng);
  }
  return repaired;
}

std::vector<metric::Point> DynamicOverlay::long_links_of(metric::Point p) const {
  util::require(space_.contains(p), "long_links_of: position outside the space");
  std::vector<metric::Point> targets;
  targets.reserve(out_links_[static_cast<std::size_t>(p)].size());
  for (const LinkRecord& rec : out_links_[static_cast<std::size_t>(p)]) {
    targets.push_back(rec.target);
  }
  return targets;
}

std::vector<metric::Distance> DynamicOverlay::long_link_lengths() const {
  std::vector<metric::Distance> lengths;
  for (const metric::Point p : members_) {
    for (const LinkRecord& rec : out_links_[static_cast<std::size_t>(p)]) {
      if (members_.contains(rec.target)) {
        lengths.push_back(space_.distance(p, rec.target));
      }
    }
  }
  return lengths;
}

graph::OverlayGraph DynamicOverlay::snapshot(bool bidirectional) const {
  util::require(!members_.empty(), "snapshot: empty overlay");
  std::vector<metric::Point> positions(members_.begin(), members_.end());
  const bool full = positions.size() == space_.size();
  graph::GraphBuilder builder = full
                                    ? graph::GraphBuilder(space_)
                                    : graph::GraphBuilder(space_, std::move(positions));
  builder.wire_short_links();
  for (graph::NodeId i = 0; i < builder.size(); ++i) {
    const metric::Point p = builder.position(i);
    for (const LinkRecord& rec : out_links_[static_cast<std::size_t>(p)]) {
      const graph::NodeId target = builder.node_at(rec.target);
      if (target != graph::kInvalidNode && target != i) {
        builder.add_long_link(i, target);
      }
    }
  }
  if (bidirectional) builder.make_bidirectional();
  return builder.freeze();
}

}  // namespace p2p::core
