// Collaborative filtering by voting (§3.2).
//
// Carriers that match a target exactly on the dependent attributes form its
// peer group; the recommendation is the group's modal value, emitted only
// when its support reaches the voting threshold (75% in the paper).
// Peer groups are interned as dense ids with flat vote arrays: a global vote
// is an array index, a local (1-hop X2) vote compares the neighborhood
// rows' ids with the target's (DESIGN.md §5).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/dependency.h"
#include "core/param_view.h"

namespace auric::core {

/// Dense id of a peer group within one VotingModel; kNoGroup matches nothing.
using GroupId = std::int32_t;
inline constexpr GroupId kNoGroup = -1;

struct Vote {
  ml::ClassLabel label = -1;     ///< winning class (ParamView label space)
  std::int32_t count = 0;        ///< votes for the winner
  std::int32_t runner_up = 0;    ///< votes for the second-placed class (0 if unanimous)
  std::int32_t group_size = 0;   ///< total voters
  double support() const {
    return group_size > 0 ? static_cast<double>(count) / static_cast<double>(group_size) : 0.0;
  }
  /// Decisiveness of the win: (winner - runner-up) / group. 1.0 when the
  /// group is unanimous, -> 0 when the top two classes are nearly tied.
  double margin() const {
    return group_size > 0
               ? static_cast<double>(count - runner_up) / static_cast<double>(group_size)
               : 0.0;
  }
};

/// Whose codes a key is read from: carrier-side dependents from `carrier_codes`
/// if given (a carrier outside the inventory), else `carrier`'s; others `neighbor`'s.
struct Subject {
  netsim::CarrierId carrier = netsim::kInvalidCarrier;
  netsim::CarrierId neighbor = netsim::kInvalidCarrier;
  std::span<const netsim::AttrCode> carrier_codes = {};
};

/// One backoff level's peer-group table: dense group ids from an open-addressing
/// index hashed over the dependents in canonical (AttrRef, not rank) order, so
/// an id names a dependent *set*; hits are verified against a representative
/// observation's codes. Votes are per-group totals plus (label, count) CSR.
class VotingModel {
 public:
  /// Aggregates `view` into peer groups keyed by the dependent attributes of
  /// `deps`. `attr_codes` must be the same encoding the dependency scan used.
  /// Row r's group id goes to `row_ids[r * stride]` when `row_ids` is set.
  VotingModel(const ParamView& view, std::span<const AttrRef> deps,
              const std::vector<std::vector<netsim::AttrCode>>& attr_codes,
              GroupId* row_ids = nullptr, std::size_t stride = 1);

  /// Id of the group `subject` keys into, or kNoGroup. Throws
  /// std::logic_error for neighbor-side dependents without a neighbor.
  GroupId find(const Subject& subject) const;

  /// Winning vote of group `id` if its support is >= `threshold`; `own_label`
  /// >= 0 first removes one observation of it (leave-one-out, §4.2).
  std::optional<Vote> vote(GroupId id, double threshold, ml::ClassLabel own_label = -1) const;

  /// Applies a signed vote delta for one observation (+1 interns a new group)
  /// and returns the group's id. An emptied group keeps its id and stops
  /// counting as live, so the model votes as a fresh build would (DESIGN.md
  /// §18). Throws std::logic_error when a count would go negative.
  GroupId adjust(netsim::CarrierId carrier, netsim::CarrierId neighbor, ml::ClassLabel label,
                 std::int32_t delta);

  /// Re-codes every vote's label through monotone `old_to_new`; a negative
  /// entry for a label that still holds votes trips std::logic_error.
  void remap_labels(std::span<const ml::ClassLabel> old_to_new);

  /// Live groups (at least one voter).
  std::size_t group_count() const {
    return static_cast<std::size_t>(
        std::count_if(groups_.begin(), groups_.end(), [](const Group& g) { return g.total > 0; }));
  }

  /// Each live group's key (codes of the dependents, listed in `order`), modal
  /// value and counts, for rule-book synthesis; sorted by key.
  struct GroupSummary {
    std::vector<netsim::AttrCode> key;
    ml::ClassLabel winner = -1;
    std::int32_t winner_count = 0;
    std::int32_t total = 0;
    double support() const {
      return total > 0 ? static_cast<double>(winner_count) / static_cast<double>(total) : 0.0;
    }
  };
  std::vector<GroupSummary> group_summaries(std::span<const AttrRef> order) const;

 private:
  friend class BackoffVoting;
  using Pair = std::pair<ml::ClassLabel, std::int32_t>;

  VotingModel(std::span<const AttrRef> deps,  // an empty table
              const std::vector<std::vector<netsim::AttrCode>>& attr_codes);

  /// find(), creating an empty group when absent (topology carriers only).
  GroupId intern(netsim::CarrierId carrier, netsim::CarrierId neighbor);
  std::uint64_t hash(const Subject& subject) const;
  /// Slot holding `subject`'s group, or the empty slot where it would go.
  std::size_t probe(const Subject& subject, std::uint64_t h) const;
  void grow();
  void add(GroupId id, ml::ClassLabel label, std::int32_t delta);
  void pack();  // drops the pairs_ entries orphaned by segment moves

  /// One group's record, by id: everything a lookup or a vote touches.
  struct Group {
    std::uint64_t hash;
    netsim::CarrierId rep_carrier, rep_neighbor;  // representative observation
    std::int32_t total;
    std::uint32_t begin, len;  // segment of pairs_
    GroupId parent;  // the next level's group holding this key (BackoffVoting only)
  };

  std::vector<AttrRef> deps_;  // canonical order
  const std::vector<std::vector<netsim::AttrCode>>* attr_codes_;
  std::vector<GroupId> slots_;  // open addressing, power-of-two size
  std::vector<Group> groups_;
  std::vector<Pair> pairs_;
  std::size_t holes_ = 0;
};

/// Voting with support-driven backoff (DESIGN.md §5). When the exact match on
/// all dependents (strongest first) yields no vote at the threshold, the
/// weakest dependent is dropped and the coarser group retried, up to `levels`
/// times. Every view row stores its group id at each level, row-major, so
/// one cache line holds a row's whole ladder.
class BackoffVoting {
 public:
  static constexpr int kMaxLevels = 16;

  /// `deps` sorted strongest-first; level k (< levels) matches on the first
  /// |deps| - k. A vote before the last level also needs `min_voters` peers —
  /// a unanimous "vote" of one or two carriers is no evidence; the final
  /// level accepts any non-empty group (the best available evidence).
  BackoffVoting(const ParamView& view, std::span<const AttrRef> deps,
                const std::vector<std::vector<netsim::AttrCode>>& attr_codes, int levels = 3,
                int min_voters = 3);

  struct Decision {
    Vote vote;
    int level = 0;  ///< 0 = full dependent set, 1 = one dropped, ...
  };

  /// A slot's group id at every level (a ladder holds at most kMaxLevels).
  using Target = std::array<GroupId, kMaxLevels>;

  /// Target of (carrier, neighbor): `row`'s ids when it is that slot's row
  /// of `view` (the view this model was built from), else a lookup.
  Target target(const ParamView& view, netsim::CarrierId carrier, netsim::CarrierId neighbor,
                std::int64_t row) const;

  /// Target by lookup: the cold start of a carrier not in the topology
  /// (kUnseen codes match no group: §6's bootstrap fallback).
  Target target(const Subject& subject) const;

  /// Global vote; tries levels in order. `own_label` >= 0 makes it the
  /// leave-one-out vote.
  std::optional<Decision> vote(const Target& target, double threshold,
                               ml::ClassLabel own_label = -1) const;

  /// Local vote on the same ladder (§3.3): the peers are `view`'s rows whose
  /// subject is in `candidates` and whose id is the target's, but not
  /// `exclude_row`; every level needs the quorum. `carrier_weights` (§6
  /// feedback), when given, weighs each voter by its carrier.
  std::optional<Decision> local(const ParamView& view,
                                std::span<const netsim::CarrierId> candidates,
                                const Target& target, std::int64_t exclude_row, double threshold,
                                std::span<const double> carrier_weights = {}) const;

  /// The same votes addressed by (carrier, neighbor).
  std::optional<Decision> vote(netsim::CarrierId carrier, netsim::CarrierId neighbor,
                               double threshold) const {
    return vote(target(Subject{carrier, neighbor}), threshold);
  }
  std::optional<Decision> vote_excluding(netsim::CarrierId carrier, netsim::CarrierId neighbor,
                                         ml::ClassLabel own_label, double threshold) const {
    return vote(target(Subject{carrier, neighbor}), threshold, own_label);
  }
  std::optional<Decision> local(const ParamView& view,
                                std::span<const netsim::CarrierId> candidates,
                                netsim::CarrierId carrier, netsim::CarrierId neighbor,
                                std::int64_t exclude_row, double threshold,
                                std::span<const double> carrier_weights = {}) const {
    return local(view, candidates, target(view, carrier, neighbor, exclude_row), exclude_row,
                 threshold, carrier_weights);
  }

  /// Incremental relearn (DESIGN.md §18): a signed vote delta for one
  /// observation at every level (see VotingModel::adjust).
  void adjust(netsim::CarrierId carrier, netsim::CarrierId neighbor, ml::ClassLabel label,
              std::int32_t delta);

  /// Re-keys the id column after `view`'s rows were rebuilt from
  /// `old_entity`: surviving rows keep their ids, new rows intern theirs.
  void remap_rows(const ParamView& view, std::span<const std::size_t> old_entity);

  /// Applies a label renumbering to every level (VotingModel::remap_labels).
  void remap_labels(std::span<const ml::ClassLabel> old_to_new) {
    for (VotingModel& model : models_) model.remap_labels(old_to_new);
  }

  /// Adopts a re-ranking of the same dependent set. Ids name sets, so only a
  /// level whose prefix membership shifted is refolded from the level above.
  void reorder_deps(std::span<const AttrRef> new_deps);

  /// Dependent refs used at backoff level `level`, strongest first.
  std::span<const AttrRef> deps_at(int level) const {
    return {deps_.data(), deps_.size() - static_cast<std::size_t>(level)};
  }

  /// The voting model at backoff `level` (0 = full dependent set).
  const VotingModel& model_at(int level) const {
    return models_.at(static_cast<std::size_t>(level));
  }

  int level_count() const { return static_cast<int>(models_.size()); }

 private:
  std::vector<AttrRef> deps_;
  const std::vector<std::vector<netsim::AttrCode>>* attr_codes_;
  std::vector<VotingModel> models_;  // [level] -> model on the prefix
  std::vector<GroupId> ids_;         // [row * level_count() + level]
  int min_voters_ = 3;

  /// Level `level`'s table folded from level - 1's, filling its id column
  /// and linking level - 1's groups to it.
  VotingModel coarsen(int level, std::size_t stride);
};

}  // namespace auric::core
