#include "core/voting.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace auric::core {

namespace {

using Codes = std::vector<std::vector<netsim::AttrCode>>;

netsim::AttrCode code_of(const Codes& attr_codes, const Subject& s, const AttrRef& ref) {
  if (!ref.neighbor_side && !s.carrier_codes.empty()) return s.carrier_codes[ref.attr];
  const netsim::CarrierId subject = ref.neighbor_side ? s.neighbor : s.carrier;
  if (subject == netsim::kInvalidCarrier) {
    throw std::logic_error("voting: neighbor-side dependency without a neighbor");
  }
  return attr_codes[ref.attr][static_cast<std::size_t>(subject)];
}

/// Scans (label, count) pairs for the winner and runner-up counts; ties go
/// to the smaller label, so the result does not depend on pair order.
template <typename W, typename Pairs, typename CountOf>
ml::ClassLabel top_two(const Pairs& pairs, CountOf count_of, W& best, W& runner_up) {
  ml::ClassLabel winner = -1;
  for (const auto& pair : pairs) {
    const W c = count_of(pair);
    if (c > best || (c == best && winner >= 0 && pair.first < winner)) {
      runner_up = best;
      winner = pair.first;
      best = c;
    } else if (c > runner_up) {
      runner_up = c;
    }
  }
  return winner;
}

}  // namespace

VotingModel::VotingModel(std::span<const AttrRef> deps, const Codes& attr_codes)
    : deps_(deps.begin(), deps.end()), attr_codes_(&attr_codes) {
  std::sort(deps_.begin(), deps_.end(), [](const AttrRef& a, const AttrRef& b) {
    return std::pair(a.neighbor_side, a.attr) < std::pair(b.neighbor_side, b.attr);
  });
}

VotingModel::VotingModel(const ParamView& view, std::span<const AttrRef> deps,
                         const Codes& attr_codes, GroupId* row_ids, std::size_t stride)
    : VotingModel(deps, attr_codes) {
  for (std::size_t r = 0; r < view.rows(); ++r) {
    const GroupId id = intern(view.carrier[r], view.neighbor[r]);
    add(id, view.label[r], 1);
    if (row_ids != nullptr) row_ids[r * stride] = id;
  }
  pack();
}

std::uint64_t VotingModel::hash(const Subject& subject) const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const AttrRef& ref : deps_) {
    h ^= static_cast<std::uint32_t>(code_of(*attr_codes_, subject, ref));
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 33;  // fold the high bits into the slot bits
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

std::size_t VotingModel::probe(const Subject& subject, std::uint64_t h) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = h & mask;; slot = (slot + 1) & mask) {
    const GroupId id = slots_[slot];
    if (id == kNoGroup) return slot;
    const Group& group = groups_[static_cast<std::size_t>(id)];
    if (group.hash != h) continue;
    const Subject rep{group.rep_carrier, group.rep_neighbor};
    const auto same = [&](const AttrRef& ref) {
      return code_of(*attr_codes_, subject, ref) == code_of(*attr_codes_, rep, ref);
    };
    if (std::all_of(deps_.begin(), deps_.end(), same)) return slot;
  }
}

void VotingModel::grow() {
  slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), kNoGroup);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    std::size_t slot = groups_[g].hash & mask;
    while (slots_[slot] != kNoGroup) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<GroupId>(g);
  }
}

GroupId VotingModel::find(const Subject& subject) const {
  return slots_.empty() ? kNoGroup : slots_[probe(subject, hash(subject))];
}

GroupId VotingModel::intern(netsim::CarrierId carrier, netsim::CarrierId neighbor) {
  if (2 * (groups_.size() + 1) > slots_.size()) grow();  // load factor <= 1/2
  const Subject subject{carrier, neighbor};
  const std::uint64_t h = hash(subject);
  GroupId& slot = slots_[probe(subject, h)];
  if (slot != kNoGroup) return slot;
  slot = static_cast<GroupId>(groups_.size());
  groups_.push_back(
      {h, carrier, neighbor, 0, static_cast<std::uint32_t>(pairs_.size()), 0, kNoGroup});
  return slot;
}

std::optional<Vote> VotingModel::vote(GroupId id, double threshold,
                                      ml::ClassLabel own_label) const {
  if (id == kNoGroup) return std::nullopt;
  const Group& group = groups_[static_cast<std::size_t>(id)];
  Vote best;
  best.label = top_two(
      std::span(pairs_.data() + group.begin, group.len),
      [&](const Pair& p) { return p.first == own_label ? p.second - 1 : p.second; }, best.count,
      best.runner_up);
  best.group_size = own_label >= 0 ? group.total - 1 : group.total;
  if (best.group_size <= 0 || best.count <= 0 || best.support() < threshold) return std::nullopt;
  return best;
}

std::vector<VotingModel::GroupSummary> VotingModel::group_summaries(
    std::span<const AttrRef> order) const {
  std::vector<GroupSummary> out;
  for (const Group& group : groups_) {
    if (group.total == 0) continue;
    GroupSummary summary;
    const Subject rep{group.rep_carrier, group.rep_neighbor};
    for (const AttrRef& ref : order) summary.key.push_back(code_of(*attr_codes_, rep, ref));
    summary.total = group.total;
    std::int32_t runner_up = 0;
    summary.winner = top_two(std::span(pairs_.data() + group.begin, group.len),
                             [](const Pair& p) { return p.second; }, summary.winner_count,
                             runner_up);
    out.push_back(std::move(summary));
  }
  std::sort(out.begin(), out.end(),
            [](const GroupSummary& a, const GroupSummary& b) { return a.key < b.key; });
  return out;
}

GroupId VotingModel::adjust(netsim::CarrierId carrier, netsim::CarrierId neighbor,
                            ml::ClassLabel label, std::int32_t delta) {
  if (delta == 0) return kNoGroup;
  const GroupId id = delta > 0 ? intern(carrier, neighbor) : find({carrier, neighbor});
  if (delta < 0 && (id == kNoGroup || groups_[static_cast<std::size_t>(id)].total == 0)) {
    throw std::logic_error("VotingModel::adjust: removing from an absent group");
  }
  add(id, label, delta);
  if (holes_ > pairs_.size() / 2) pack();
  return id;
}

void VotingModel::add(GroupId id, ml::ClassLabel label, std::int32_t delta) {
  Group& group = groups_[static_cast<std::size_t>(id)];
  const std::span<Pair> seg(pairs_.data() + group.begin, group.len);
  const auto pair =
      std::find_if(seg.begin(), seg.end(), [&](const Pair& p) { return p.first == label; });
  if (pair == seg.end()) {
    if (delta < 0) throw std::logic_error("VotingModel::adjust: removing an absent label");
    // Move the segment to the end of pairs_, one pair longer.
    const std::size_t from = group.begin, to = pairs_.size();
    pairs_.resize(to + group.len + 1);
    std::copy_n(pairs_.begin() + from, group.len, pairs_.begin() + to);
    pairs_.back() = {label, delta};
    group.begin = static_cast<std::uint32_t>(to);
    holes_ += group.len++;
  } else {
    pair->second += delta;
    if (pair->second < 0) throw std::logic_error("VotingModel::adjust: vote count went negative");
    if (pair->second == 0) {
      *pair = seg.back();
      --group.len;
      ++holes_;
    }
  }
  group.total += delta;
  if (group.total < 0) throw std::logic_error("VotingModel::adjust: group size went negative");
}

void VotingModel::pack() {
  std::vector<Pair> packed;
  packed.reserve(pairs_.size() - holes_);
  for (Group& group : groups_) {
    const auto seg = std::span(pairs_.data() + group.begin, group.len);
    group.begin = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), seg.begin(), seg.end());
  }
  pairs_ = std::move(packed);
  holes_ = 0;
}

void VotingModel::remap_labels(std::span<const ml::ClassLabel> old_to_new) {
  for (const Group& group : groups_) {
    for (auto& [label, count] : std::span(pairs_.data() + group.begin, group.len)) {
      const ml::ClassLabel next = old_to_new[static_cast<std::size_t>(label)];
      if (next < 0) throw std::logic_error("VotingModel::remap_labels: dropping a live label");
      label = next;
    }
  }
}

BackoffVoting::BackoffVoting(const ParamView& view, std::span<const AttrRef> deps,
                             const Codes& attr_codes, int levels, int min_voters)
    : deps_(deps.begin(), deps.end()), attr_codes_(&attr_codes), min_voters_(min_voters) {
  if (levels < 1) throw std::invalid_argument("BackoffVoting: levels must be >= 1");
  const int count = deps_.empty() ? 1 : std::min<int>(levels, static_cast<int>(deps_.size()));
  if (count > kMaxLevels) throw std::invalid_argument("BackoffVoting: too many levels");
  const auto stride = static_cast<std::size_t>(count);
  ids_.resize(view.rows() * stride);
  models_.reserve(stride);
  models_.push_back(VotingModel(view, deps_at(0), attr_codes, ids_.data(), stride));
  for (int level = 1; level < count; ++level) models_.push_back(coarsen(level, stride));
}

VotingModel BackoffVoting::coarsen(int level, std::size_t stride) {
  // Groups nest — a coarser level drops an attribute — so each finer group
  // lies in exactly one coarser group: intern one representative per finer
  // group and fold in its votes, instead of re-keying every row.
  VotingModel& finer = models_[static_cast<std::size_t>(level) - 1];
  VotingModel model(deps_at(level), *attr_codes_);
  for (VotingModel::Group& group : finer.groups_) {
    group.parent = model.intern(group.rep_carrier, group.rep_neighbor);
    for (std::uint32_t i = group.begin; i < group.begin + group.len; ++i) {
      model.add(group.parent, finer.pairs_[i].first, finer.pairs_[i].second);
    }
  }
  for (auto i = static_cast<std::size_t>(level); i < ids_.size(); i += stride) {
    ids_[i] = finer.groups_[static_cast<std::size_t>(ids_[i - 1])].parent;
  }
  model.pack();
  return model;
}

void BackoffVoting::remap_rows(const ParamView& view, std::span<const std::size_t> old_entity) {
  const std::size_t levels = models_.size();
  std::vector<GroupId> next(view.rows() * levels);
  std::size_t old = 0;
  for (std::size_t r = 0; r < view.rows(); ++r) {
    while (old < old_entity.size() && old_entity[old] < view.entity[r]) ++old;
    const bool kept = old < old_entity.size() && old_entity[old] == view.entity[r];
    for (std::size_t level = 0; level < levels; ++level) {
      next[r * levels + level] = kept ? ids_[old * levels + level]
                                      : models_[level].intern(view.carrier[r], view.neighbor[r]);
    }
  }
  ids_ = std::move(next);
}

void BackoffVoting::adjust(netsim::CarrierId carrier, netsim::CarrierId neighbor,
                           ml::ClassLabel label, std::int32_t delta) {
  GroupId coarser = kNoGroup;  // coarsest first, so each group links to its parent
  for (std::size_t level = models_.size(); level-- > 0;) {
    const GroupId id = models_[level].adjust(carrier, neighbor, label, delta);
    if (id != kNoGroup) models_[level].groups_[static_cast<std::size_t>(id)].parent = coarser;
    coarser = id;
  }
}

void BackoffVoting::reorder_deps(std::span<const AttrRef> new_deps) {
  if (new_deps.size() != deps_.size() ||
      !std::is_permutation(new_deps.begin(), new_deps.end(), deps_.begin())) {
    throw std::logic_error("BackoffVoting::reorder_deps: dependent sets differ");
  }
  deps_.assign(new_deps.begin(), new_deps.end());
  const std::size_t stride = models_.size();
  for (std::size_t level = 1; level < stride; ++level) {  // level 0 holds the whole set
    const auto prefix = deps_at(static_cast<int>(level));
    if (std::is_permutation(prefix.begin(), prefix.end(), models_[level].deps_.begin())) continue;
    models_[level] = coarsen(static_cast<int>(level), stride);
    if (level + 1 == stride) continue;
    for (VotingModel::Group& group : models_[level].groups_) {  // relink to the next level
      group.parent = models_[level + 1].intern(group.rep_carrier, group.rep_neighbor);
    }
  }
}

BackoffVoting::Target BackoffVoting::target(const ParamView& view, netsim::CarrierId carrier,
                                            netsim::CarrierId neighbor,
                                            std::int64_t row) const {
  const auto r = static_cast<std::size_t>(row);  // a negative row wraps past view.rows()
  if (r >= view.rows() || ids_.size() != view.rows() * models_.size() ||
      view.carrier[r] != carrier || view.neighbor[r] != neighbor) {
    return target(Subject{carrier, neighbor});
  }
  Target t;
  t.fill(kNoGroup);
  std::copy_n(&ids_[r * models_.size()], models_.size(), t.begin());
  return t;
}

BackoffVoting::Target BackoffVoting::target(const Subject& subject) const {
  // One lookup at the finest level that knows the key; the coarser ids follow
  // the parent links, as a finer group lies in one coarser group.
  Target t;
  t.fill(kNoGroup);
  std::size_t level = 0;
  while (level < models_.size() && (t[level] = models_[level].find(subject)) == kNoGroup) ++level;
  for (; level + 1 < models_.size(); ++level) {
    t[level + 1] = models_[level].groups_[static_cast<std::size_t>(t[level])].parent;
  }
  return t;
}

std::optional<BackoffVoting::Decision> BackoffVoting::vote(const Target& target, double threshold,
                                                           ml::ClassLabel own_label) const {
  for (int level = 0; level < level_count(); ++level) {
    const auto l = static_cast<std::size_t>(level);
    const auto v = models_[l].vote(target[l], threshold, own_label);
    // Before the last level a vote also needs the quorum.
    if (v && (level + 1 == level_count() || v->group_size >= min_voters_)) {
      return Decision{*v, level};
    }
  }
  return std::nullopt;
}

std::optional<BackoffVoting::Decision> BackoffVoting::local(
    const ParamView& view, std::span<const netsim::CarrierId> candidates, const Target& target,
    std::int64_t exclude_row, double threshold, std::span<const double> carrier_weights) const {
  const int levels = level_count();
  const auto stride = static_cast<std::size_t>(levels);
  if (ids_.size() != view.rows() * stride) throw std::logic_error("BackoffVoting: foreign view");
  // Gather the neighborhood's rows (per-thread scratch, prefetching their
  // ids), then compare ids. Groups nest, so a row sharing the target's group
  // at its finest matching level shares every coarser one too.
  struct Match { ml::ClassLabel label; int level; double weight; };
  thread_local std::vector<Match> matches;
  thread_local std::vector<std::pair<ml::ClassLabel, double>> counts;
  thread_local std::vector<std::uint32_t> rows;
  matches.clear();
  rows.clear();
  for (netsim::CarrierId cand : candidates) {
    for (std::uint32_t row : view.rows_of(cand)) {
      if (static_cast<std::int64_t>(row) == exclude_row) continue;
      rows.push_back(row);
      __builtin_prefetch(&ids_[row * stride]);
      __builtin_prefetch(&view.label[row]);
    }
  }
  std::array<std::int32_t, kMaxLevels> finest{};
  for (std::uint32_t row : rows) {
    const GroupId* ids = &ids_[row * stride];
    int level = 0;
    while (level < levels && ids[level] != target[static_cast<std::size_t>(level)]) ++level;
    if (level == levels) continue;
    ++finest[static_cast<std::size_t>(level)];
    matches.push_back(
        {view.label[row], level,
         carrier_weights.empty() ? 1.0
                                 : carrier_weights[static_cast<std::size_t>(view.carrier[row])]});
  }
  // Tally each level in row order (weighted sums stay bit-exact). Every level
  // needs the quorum: the global vote is the backstop for thin neighborhoods.
  std::int32_t voters = 0;
  for (int level = 0; level < levels; ++level) {
    voters += finest[static_cast<std::size_t>(level)];
    if (voters == 0 || voters < min_voters_) continue;
    counts.clear();
    double total = 0.0;
    for (const Match& m : matches) {
      if (m.level > level) continue;
      total += m.weight;
      auto it = std::find_if(counts.begin(), counts.end(),
                             [&](const auto& c) { return c.first == m.label; });
      if (it == counts.end()) it = counts.insert(it, {m.label, 0.0});
      it->second += m.weight;
    }
    double best_weight = 0.0, runner_weight = 0.0;
    const ml::ClassLabel winner = top_two(
        counts, [](const auto& c) { return c.second; }, best_weight, runner_weight);
    if (total <= 0.0 || best_weight / total < threshold) continue;
    Vote best;
    best.label = winner;
    best.group_size = voters;
    // Weighted votes decide on the weight fraction; re-derive the counts so
    // Vote::support() (count / group_size) reflects it.
    const auto units = [&](double w) {
      return static_cast<std::int32_t>(
          std::lround(carrier_weights.empty() ? w : w / total * voters));
    };
    best.count = units(best_weight);
    best.runner_up = units(runner_weight);
    return Decision{best, level};
  }
  return std::nullopt;
}

}  // namespace auric::core
