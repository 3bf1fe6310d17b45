#include "core/voting.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace auric::core {
namespace {

// chain_topology(5, 3): 16 carriers; even ids are 700 MHz, odd are 1900 MHz;
// ids 10..15 belong to market 1. tiny_assignment labels by band: 3 on low
// band, 7 on mid band.
struct Fixture {
  netsim::Topology topo = test::chain_topology();
  config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  std::vector<std::vector<netsim::AttrCode>> codes = schema.encode_all(topo);
  ParamView view = build_param_view(topo, catalog, assignment, 0);
  std::vector<AttrRef> deps{{false, schema.index_of("carrier_frequency")}};

  void rebuild_view() { view = build_param_view(topo, catalog, assignment, 0); }

  /// Single-level local vote on `deps` with no quorum: the bare
  /// neighborhood tally.
  std::optional<Vote> local(std::span<const netsim::CarrierId> candidates,
                            netsim::CarrierId carrier, std::int64_t exclude_row, double threshold,
                            std::span<const double> weights = {}) const {
    const BackoffVoting voting(view, deps, codes, 1, /*min_voters=*/1);
    const auto decision = voting.local(view, candidates, carrier, netsim::kInvalidCarrier,
                                       exclude_row, threshold, weights);
    if (!decision) return std::nullopt;
    return decision->vote;
  }
};

TEST(VotingModel, GroupsByDependentAttribute) {
  Fixture f;
  const VotingModel model(f.view, f.deps, f.codes);
  EXPECT_EQ(model.group_count(), 2u);  // 700 MHz and 1900 MHz groups
}

TEST(VotingModel, UnanimousGroupVotes) {
  Fixture f;
  const VotingModel model(f.view, f.deps, f.codes);
  const auto vote = model.vote(model.find({0}), 0.75);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(f.view.labels.values[static_cast<std::size_t>(vote->label)], 3);
  EXPECT_EQ(vote->group_size, 8);
  EXPECT_DOUBLE_EQ(vote->support(), 1.0);
}

TEST(VotingModel, UnknownKeyAbstains) {
  Fixture f;
  const VotingModel model(f.view, f.deps, f.codes);
  std::vector<netsim::AttrCode> alien = f.schema.encode(f.topo.carriers[0]);
  alien[f.deps[0].attr] = 42;  // a frequency the inventory never saw
  EXPECT_EQ(model.find({netsim::kInvalidCarrier, netsim::kInvalidCarrier, alien}), kNoGroup);
  EXPECT_FALSE(model.vote(kNoGroup, 0.5).has_value());
}

TEST(VotingModel, ThresholdGatesTheWinner) {
  Fixture f;
  for (netsim::CarrierId c : {0, 2, 4}) {
    f.assignment.singular[0].value[static_cast<std::size_t>(c)] = 9;
  }
  f.rebuild_view();
  const VotingModel model(f.view, f.deps, f.codes);
  const GroupId id = model.find({0});
  const auto loose = model.vote(id, 0.60);  // 5/8 = 62.5%
  ASSERT_TRUE(loose.has_value());
  EXPECT_EQ(f.view.labels.values[static_cast<std::size_t>(loose->label)], 3);
  EXPECT_FALSE(model.vote(id, 0.75).has_value());
}

TEST(VotingModel, MarginSeparatesUnanimousFromContestedWins) {
  Fixture f;
  const VotingModel unanimous_model(f.view, f.deps, f.codes);
  const auto unanimous = unanimous_model.vote(unanimous_model.find({0}), 0.75);
  ASSERT_TRUE(unanimous.has_value());
  EXPECT_EQ(unanimous->runner_up, 0);
  EXPECT_DOUBLE_EQ(unanimous->margin(), 1.0);

  // 5-vs-3 in the 700 MHz group: support 62.5%, margin (5-3)/8 = 25%.
  for (netsim::CarrierId c : {0, 2, 4}) {
    f.assignment.singular[0].value[static_cast<std::size_t>(c)] = 9;
  }
  f.rebuild_view();
  const VotingModel model(f.view, f.deps, f.codes);
  const auto contested = model.vote(model.find({0}), 0.60);
  ASSERT_TRUE(contested.has_value());
  EXPECT_EQ(contested->count, 5);
  EXPECT_EQ(contested->runner_up, 3);
  EXPECT_DOUBLE_EQ(contested->margin(), 0.25);
  EXPECT_GT(contested->support(), contested->margin());
}

TEST(LocalVote, MarginReflectsTheRunnerUp) {
  Fixture f;
  f.assignment.singular[0].value[2] = 9;  // one deviant among the candidates
  f.rebuild_view();
  const std::vector<netsim::CarrierId> candidates{0, 2, 4};
  const auto vote = f.local(candidates, 0, -1, 0.60);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->count, 2);
  EXPECT_EQ(vote->runner_up, 1);
  EXPECT_NEAR(vote->margin(), 1.0 / 3.0, 1e-9);

  // Weighted: the deviant's weight shrinks, and so does the runner-up count
  // after the weighted tally is re-expressed in voter units.
  std::vector<double> weights(f.topo.carrier_count(), 1.0);
  weights[2] = 0.1;
  const auto weighted = f.local(candidates, 0, -1, 0.60, weights);
  ASSERT_TRUE(weighted.has_value());
  EXPECT_LE(weighted->runner_up, vote->runner_up);
  EXPECT_GE(weighted->margin(), vote->margin());
}

TEST(VotingModel, LeaveOneOutExcludesOwnObservation) {
  Fixture f;
  f.assignment.singular[0].value[4] = 9;  // lone deviant in the 700 group
  f.rebuild_view();
  const VotingModel model(f.view, f.deps, f.codes);
  const ml::ClassLabel own = f.view.labels.code_of(9);
  const auto vote = model.vote(model.find({4}), 0.75, own);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(f.view.labels.values[static_cast<std::size_t>(vote->label)], 3);
  EXPECT_EQ(vote->group_size, 7);
  EXPECT_DOUBLE_EQ(vote->support(), 1.0);
}

TEST(LocalVote, RestrictsToCandidates) {
  Fixture f;
  const std::vector<netsim::CarrierId> candidates{2};
  const auto vote = f.local(candidates, 0, -1, 0.75);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->group_size, 1);
  const std::vector<netsim::CarrierId> wrong{1};  // 1900 MHz: no matching rows
  EXPECT_FALSE(f.local(wrong, 0, -1, 0.75).has_value());
}

TEST(LocalVote, ExcludeRowSkipsSelf) {
  Fixture f;
  const std::int64_t self_row = static_cast<std::int64_t>(f.view.rows_of(0)[0]);
  const std::vector<netsim::CarrierId> candidates{0, 2};
  const auto vote = f.local(candidates, 0, self_row, 0.75);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->group_size, 1);  // only carrier 2 remains
}

TEST(LocalVote, CarrierWeightsShiftTheWinner) {
  Fixture f;
  f.assignment.singular[0].value[2] = 9;
  f.rebuild_view();
  const std::vector<netsim::CarrierId> candidates{0, 2, 4};
  // Unweighted: 2-vs-1 -> 66% < 75% -> abstain.
  EXPECT_FALSE(f.local(candidates, 0, -1, 0.75).has_value());
  // The deviating carrier's vote weighted down (poor KPI history): 3 wins.
  std::vector<double> weights(f.topo.carrier_count(), 1.0);
  weights[2] = 0.1;
  const auto vote = f.local(candidates, 0, -1, 0.75, weights);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(f.view.labels.values[static_cast<std::size_t>(vote->label)], 3);
}

TEST(BackoffVoting, FallsBackWhenQuorumFailsAtFullMatch) {
  Fixture f;
  std::vector<AttrRef> deps{{false, f.schema.index_of("carrier_frequency")},
                            {false, f.schema.index_of("market")}};
  // Carrier 10 (market 1, 700 MHz): the (freq, market) group has 3 members;
  // leave-one-out shrinks it under the quorum of 3, so level 1 (frequency
  // only) decides.
  const BackoffVoting backoff(f.view, deps, f.codes, /*levels=*/2, /*min_voters=*/3);
  const auto decision = backoff.vote_excluding(10, netsim::kInvalidCarrier,
                                               f.view.label[f.view.rows_of(10)[0]], 0.75);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->level, 1);
  EXPECT_EQ(f.view.labels.values[static_cast<std::size_t>(decision->vote.label)], 3);
  EXPECT_EQ(decision->vote.group_size, 7);
}

TEST(BackoffVoting, QuorumSendsThinGroupsToCoarserLevels) {
  Fixture f;
  std::vector<AttrRef> deps{{false, f.schema.index_of("carrier_frequency")},
                            {false, f.schema.index_of("market")}};
  const BackoffVoting backoff(f.view, deps, f.codes, 2, /*min_voters=*/4);
  const auto decision = backoff.vote(10, netsim::kInvalidCarrier, 0.75);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->level, 1);
  EXPECT_EQ(decision->vote.group_size, 8);
}

TEST(BackoffVoting, LevelZeroWinsWhenStrong) {
  Fixture f;
  const BackoffVoting backoff(f.view, f.deps, f.codes, 3, 1);
  const auto decision = backoff.vote(0, netsim::kInvalidCarrier, 0.75);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->level, 0);
  EXPECT_EQ(decision->vote.group_size, 8);
}

TEST(BackoffVoting, DepsAtShrinksByLevel) {
  Fixture f;
  std::vector<AttrRef> deps{{false, 0}, {false, 1}, {false, 2}};
  const BackoffVoting backoff(f.view, deps, f.codes, 3);
  EXPECT_EQ(backoff.level_count(), 3);
  EXPECT_EQ(backoff.deps_at(0).size(), 3u);
  EXPECT_EQ(backoff.deps_at(2).size(), 1u);
  EXPECT_THROW(BackoffVoting(f.view, deps, f.codes, 0), std::invalid_argument);
}

TEST(BackoffVoting, EmptyDepsVoteOverWholePopulation) {
  Fixture f;
  const BackoffVoting backoff(f.view, {}, f.codes, 3);
  EXPECT_EQ(backoff.level_count(), 1);
  // 8-vs-8 between values 3 and 7: no 75% winner.
  EXPECT_FALSE(backoff.vote(0, netsim::kInvalidCarrier, 0.75).has_value());
  EXPECT_TRUE(backoff.vote(0, netsim::kInvalidCarrier, 0.5).has_value());
}

TEST(BackoffVoting, LocalBackoffUsesCandidateRows) {
  Fixture f;
  std::vector<AttrRef> deps{{false, f.schema.index_of("carrier_frequency")},
                            {false, f.schema.index_of("market")}};
  const BackoffVoting backoff(f.view, deps, f.codes, 2, /*min_voters=*/2);
  // Neighborhood of carrier 4 (site 2, 700): carriers 5, 2, 6 -> matching
  // rows at level 0: carriers 2 and 6 (same freq AND market) = quorum 2.
  const auto decision = backoff.local(f.view, f.topo.neighborhood(4), 4,
                                      netsim::kInvalidCarrier, -1, 0.75);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->level, 0);
  EXPECT_EQ(decision->vote.group_size, 2);
}

/// Structural and behavioral equality of two ladders over the same view.
void expect_same_ladder(const Fixture& f, const BackoffVoting& a, const BackoffVoting& b) {
  ASSERT_EQ(a.level_count(), b.level_count());
  for (int level = 0; level < a.level_count(); ++level) {
    const auto ga = a.model_at(level).group_summaries(a.deps_at(level));
    const auto gb = b.model_at(level).group_summaries(a.deps_at(level));
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t g = 0; g < ga.size(); ++g) {
      EXPECT_EQ(ga[g].key, gb[g].key);
      EXPECT_EQ(ga[g].winner_count, gb[g].winner_count);
      EXPECT_EQ(ga[g].total, gb[g].total);
    }
  }
  for (const netsim::Carrier& c : f.topo.carriers) {
    const auto row = static_cast<std::int64_t>(f.view.rows_of(c.id)[0]);
    const auto da = a.vote_excluding(c.id, netsim::kInvalidCarrier, f.view.label[row], 0.75);
    const auto db = b.vote_excluding(c.id, netsim::kInvalidCarrier, f.view.label[row], 0.75);
    ASSERT_EQ(da.has_value(), db.has_value()) << "carrier " << c.id;
    if (da) {
      EXPECT_EQ(da->level, db->level);
      EXPECT_EQ(da->vote.label, db->vote.label);
      EXPECT_EQ(da->vote.group_size, db->vote.group_size);
    }
  }
}

TEST(BackoffVoting, ReRankedDependentsMatchAFreshBuild) {
  Fixture f;
  const AttrRef freq{false, f.schema.index_of("carrier_frequency")};
  const AttrRef market{false, f.schema.index_of("market")};
  const AttrRef tac{false, f.schema.index_of("tracking_area_code")};
  const std::vector<AttrRef> ranked{freq, market, tac};
  // Same membership at both levels: ids name sets, so nothing rebuilds.
  BackoffVoting swapped(f.view, ranked, f.codes, 2);
  const std::vector<AttrRef> swap_top{market, freq, tac};
  swapped.reorder_deps(swap_top);
  expect_same_ladder(f, swapped, BackoffVoting(f.view, swap_top, f.codes, 2));
  // The dropped-weakest tail changes: level 1 rebuilds on {tac, freq}.
  BackoffVoting shifted(f.view, ranked, f.codes, 2);
  const std::vector<AttrRef> tail_changed{tac, freq, market};
  shifted.reorder_deps(tail_changed);
  expect_same_ladder(f, shifted, BackoffVoting(f.view, tail_changed, f.codes, 2));
  EXPECT_THROW(shifted.reorder_deps(f.deps), std::logic_error);
}

TEST(VotingModel, EmptiedGroupsStopCountingAndKeepTheirId) {
  Fixture f;
  VotingModel model(f.view, f.deps, f.codes);
  const GroupId low = model.find({0});
  const ml::ClassLabel three = f.view.labels.code_of(3);
  for (netsim::CarrierId c = 0; c < 16; c += 2) {
    model.adjust(c, netsim::kInvalidCarrier, three, -1);
  }
  EXPECT_EQ(model.group_count(), 1u);
  EXPECT_FALSE(model.vote(low, 0.0).has_value());
  EXPECT_EQ(model.group_summaries(f.deps).size(), 1u);
  EXPECT_THROW(model.adjust(0, netsim::kInvalidCarrier, three, -1), std::logic_error);
  model.adjust(2, netsim::kInvalidCarrier, three, 1);
  EXPECT_EQ(model.group_count(), 2u);
  EXPECT_EQ(model.find({0}), low);
  ASSERT_TRUE(model.vote(low, 0.75).has_value());
  EXPECT_EQ(model.vote(low, 0.75)->group_size, 1);
}

TEST(VotingModel, NewLabelsGrowAGroupInPlace) {
  Fixture f;
  VotingModel model(f.view, f.deps, f.codes);
  const GroupId low = model.find({0});
  // Three new values arrive in the 700 MHz group, one at a time.
  for (ml::ClassLabel label : {5, 6, 7}) model.adjust(4, netsim::kInvalidCarrier, label, 1);
  const auto vote = model.vote(low, 0.0);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->group_size, 11);
  EXPECT_EQ(vote->count, 8);
  EXPECT_EQ(vote->runner_up, 1);
  EXPECT_THROW(model.adjust(4, netsim::kInvalidCarrier, 9, -1), std::logic_error);
}

TEST(BackoffVoting, ColdStartLookupFindsTheRowIds) {
  Fixture f;
  std::vector<AttrRef> deps{{false, f.schema.index_of("carrier_frequency")},
                            {false, f.schema.index_of("market")}};
  const BackoffVoting backoff(f.view, deps, f.codes, 2);
  for (const netsim::Carrier& c : f.topo.carriers) {
    const std::vector<netsim::AttrCode> codes = f.schema.encode(c);
    EXPECT_EQ(backoff.target({netsim::kInvalidCarrier, netsim::kInvalidCarrier, codes}),
              backoff.target(f.view, c.id, netsim::kInvalidCarrier, f.view.rows_of(c.id)[0]))
        << "carrier " << c.id;
  }
}

}  // namespace
}  // namespace auric::core
