#include "core/engine.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "core/model_watch.h"
#include "obs/trace.h"
#include "test_helpers.h"

namespace auric::core {
namespace {

struct Fixture {
  netsim::Topology topo = test::chain_topology();
  config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
};

AuricOptions relaxed() {
  AuricOptions options;
  options.backoff_levels = 2;
  return options;
}

TEST(AuricEngine, RecommendsTheBandRuleForEveryCarrier) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  for (const netsim::Carrier& c : f.topo.carriers) {
    const Recommendation rec = engine.recommend(0, c.id);
    EXPECT_EQ(rec.value, c.band == netsim::Band::kLow ? 3 : 7) << "carrier " << c.id;
    EXPECT_NE(rec.source, RecommendationSource::kRulebookDefault);
  }
}

TEST(AuricEngine, PairwiseRecommendationNeedsNeighbor) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  EXPECT_THROW(engine.recommend(1, 0), std::invalid_argument);
  EXPECT_THROW(engine.recommend(0, 0, 2), std::invalid_argument);
  const Recommendation rec = engine.recommend(1, 0, 2);  // intra-frequency edge
  EXPECT_EQ(rec.value, 2);
}

TEST(AuricEngine, LocalSourcePreferredWhenProximityOn) {
  Fixture f;
  AuricOptions options = relaxed();
  options.use_proximity = true;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, options);
  // Carrier 0's neighborhood {1, 2} contains matching carrier 2 only; the
  // quorum (3) cannot be met locally, so the decision comes from the global
  // vote.
  const Recommendation rec = engine.recommend(0, 0);
  EXPECT_EQ(rec.source, RecommendationSource::kGlobalVote);
  EXPECT_EQ(rec.value, 3);
}

TEST(AuricEngine, GlobalOnlyWhenProximityOff) {
  Fixture f;
  AuricOptions options = relaxed();
  options.use_proximity = false;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, options);
  const Recommendation rec = engine.recommend(0, 0);
  EXPECT_EQ(rec.source, RecommendationSource::kGlobalVote);
}

TEST(AuricEngine, FallsBackToRulebookDefaultWithoutEvidence) {
  Fixture f;
  // Scatter the values so no peer group reaches a 75% vote anywhere.
  for (std::size_t c = 0; c < f.topo.carrier_count(); ++c) {
    f.assignment.singular[0].value[c] = static_cast<config::ValueIndex>(c % 11);
    f.assignment.singular[0].intended[c] = static_cast<config::ValueIndex>(c % 11);
  }
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  const Recommendation rec = engine.recommend(0, 0);
  EXPECT_EQ(rec.source, RecommendationSource::kRulebookDefault);
  EXPECT_EQ(rec.value, f.catalog.at(0).default_index);  // default = 5
}

TEST(AuricEngine, BatchHelpersCoverEveryParameter) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  EXPECT_EQ(engine.recommend_singular(0).size(), f.catalog.singular_ids().size());
  EXPECT_EQ(engine.recommend_pairwise(0, 2).size(), f.catalog.pairwise_ids().size());
}

TEST(AuricEngine, ExplainNamesTheEvidence) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  const Recommendation rec = engine.recommend(0, 0);
  const std::string explanation = engine.explain(rec, 0);
  EXPECT_NE(explanation.find("toySingular"), std::string::npos);
  EXPECT_NE(explanation.find("support"), std::string::npos);
  EXPECT_NE(explanation.find("global-vote"), std::string::npos);
}

TEST(AuricEngine, ExcludeSelfChangesThinVotes) {
  Fixture f;
  // Give one 700 MHz carrier a unique value; with exclude_self its own
  // observation cannot vote for itself.
  f.assignment.singular[0].value[4] = 10;
  AuricOptions options = relaxed();
  options.max_dependent = 6;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, options);
  const Recommendation with_self = engine.recommend(0, 4, netsim::kInvalidCarrier, false);
  const Recommendation without_self = engine.recommend(0, 4, netsim::kInvalidCarrier, true);
  EXPECT_EQ(without_self.value, 3);  // the other 700 MHz carriers
  // Including self, the own unique value forms part of the evidence; the
  // recommendation may differ (or the vote may fail) but must never be both
  // identical in value AND in evidence counts.
  EXPECT_TRUE(with_self.value != without_self.value ||
              with_self.group_size != without_self.group_size);
}

TEST(AuricEngine, ColdStartRecommendsFromAttributes) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  // A brand-new 700 MHz carrier, not in the inventory, planned next to
  // site 0: its attributes match the low-band peer group.
  netsim::Carrier planned = f.topo.carriers[0];
  planned.id = static_cast<netsim::CarrierId>(f.topo.carrier_count() + 100);
  const std::vector<netsim::CarrierId> x2{0, 2};
  const Recommendation rec = engine.recommend_for(planned, x2, 0);
  EXPECT_EQ(rec.value, 3);
  EXPECT_NE(rec.source, RecommendationSource::kRulebookDefault);
  // The full-batch helper covers every singular parameter.
  EXPECT_EQ(engine.recommend_for_all_singular(planned, x2).size(),
            f.catalog.singular_ids().size());
}

TEST(AuricEngine, ColdStartUnseenAttributeFallsToDefault) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  netsim::Carrier alien = f.topo.carriers[0];
  alien.frequency_mhz = 2600;  // never observed in the chain fixture
  const Recommendation rec = engine.recommend_for(alien, {}, 0);
  // §6 "bootstrapping the unobserved": stick with the default.
  EXPECT_EQ(rec.source, RecommendationSource::kRulebookDefault);
  EXPECT_EQ(rec.value, f.catalog.at(0).default_index);
}

TEST(AuricEngine, ColdStartPairwiseNeedsNeighbor) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  const netsim::Carrier planned = f.topo.carriers[0];
  EXPECT_THROW(engine.recommend_for(planned, {}, 1), std::invalid_argument);
  const Recommendation rec = engine.recommend_for(planned, {}, 1, /*neighbor=*/2);
  EXPECT_EQ(rec.value, 2);
}

TEST(RecommendationSourceNames, Stable) {
  EXPECT_STREQ(recommendation_source_name(RecommendationSource::kLocalVote), "local-vote");
  EXPECT_STREQ(recommendation_source_name(RecommendationSource::kRulebookDefault),
               "rulebook-default");
}

/// FNV-1a over every field a recommendation carries.
std::uint64_t digest_of(const std::vector<Recommendation>& recs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const auto& v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  };
  for (const Recommendation& r : recs) {
    mix(r.param);
    mix(r.value);
    mix(r.source);
    mix(r.votes);
    mix(r.group_size);
    mix(r.support);
    mix(r.margin);
    mix(r.level);
  }
  return h;
}

/// The serve plane shares one engine (and its watch) across request threads:
/// four threads walking every carrier, each from a different start, must
/// reproduce the serial answers exactly.
TEST(AuricEngine, ConcurrentRecommendMatchesTheSerialDigest) {
  const netsim::Topology topo = test::small_generated_topology(5, 2, 10);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();
  AuricEngine engine(topo, schema, catalog, assignment);
  obs::MetricsRegistry registry;
  const ModelWatch watch(catalog, registry);
  engine.set_watch(&watch);

  const auto n = static_cast<netsim::CarrierId>(topo.carrier_count());
  const auto walk = [&](netsim::CarrierId start) {
    std::vector<std::vector<Recommendation>> by_carrier(topo.carrier_count());
    for (netsim::CarrierId i = 0; i < n; ++i) {
      const netsim::CarrierId c = (start + i) % n;
      by_carrier[static_cast<std::size_t>(c)] = engine.recommend_singular(c);
    }
    std::vector<Recommendation> flat;
    for (const auto& recs : by_carrier) flat.insert(flat.end(), recs.begin(), recs.end());
    return digest_of(flat);
  };
  const std::uint64_t serial = walk(0);
  std::vector<std::uint64_t> digests(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < digests.size(); ++t) {
    threads.emplace_back([&, t] { digests[t] = walk(static_cast<netsim::CarrierId>(t) * n / 4); });
  }
  for (std::thread& t : threads) t.join();
  for (std::uint64_t d : digests) EXPECT_EQ(d, serial);
}

TEST(AuricEngine, RecommendationCarriesItsBackoffLevel) {
  const netsim::Topology topo = test::small_generated_topology(5, 2, 10);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();
  const AuricEngine engine(topo, schema, catalog, assignment);
  const double threshold = engine.options().vote_threshold;
  bool backed_off = false;
  for (const netsim::Carrier& c : topo.carriers) {
    for (const Recommendation& rec : engine.recommend_singular(c.id)) {
      const BackoffVoting& voting = engine.voting(rec.param);
      const ParamView& view = engine.view(rec.param);
      std::int64_t row = -1;
      if (!view.rows_of(c.id).empty()) row = view.rows_of(c.id)[0];
      std::optional<BackoffVoting::Decision> decision;
      if (rec.source == RecommendationSource::kLocalVote) {
        decision = voting.local(view, topo.neighborhood(c.id), c.id, netsim::kInvalidCarrier,
                                row, threshold);
      } else if (rec.source == RecommendationSource::kGlobalVote) {
        decision = row >= 0 ? voting.vote_excluding(c.id, netsim::kInvalidCarrier,
                                                    view.label[static_cast<std::size_t>(row)],
                                                    threshold)
                            : voting.vote(c.id, netsim::kInvalidCarrier, threshold);
      }
      ASSERT_EQ(rec.level, decision ? decision->level : -1) << "carrier " << c.id;
      if (rec.level > 0 && !backed_off) {
        // explain() names the level and matches on just the dependents it kept.
        backed_off = true;
        const std::string text = engine.explain(rec, c.id);
        EXPECT_NE(text.find(", level " + std::to_string(rec.level) + ","), std::string::npos);
        const std::string matched = text.substr(text.find(" matched on "));
        EXPECT_EQ(static_cast<std::size_t>(std::count(matched.begin(), matched.end(), '=')),
                  voting.deps_at(rec.level).size());
      }
    }
  }
  EXPECT_TRUE(backed_off);
}

TEST(AuricEngine, RulebookDefaultHasNoBackoffLevel) {
  Fixture f;
  for (std::size_t c = 0; c < f.topo.carrier_count(); ++c) {
    f.assignment.singular[0].value[c] = static_cast<config::ValueIndex>(c % 11);
  }
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  const Recommendation rec = engine.recommend(0, 0);
  ASSERT_EQ(rec.source, RecommendationSource::kRulebookDefault);
  EXPECT_EQ(rec.level, -1);
  EXPECT_EQ(engine.explain(rec, 0).find("level"), std::string::npos);
}

/// Per-parameter learn phases are spans under engine.learn, also when they
/// run on the learn pool's runners (the pool carries the trace context).
TEST(AuricEngine, LearnPhaseSpansNestUnderTheLearnAcrossThePool) {
  const netsim::Topology topo = test::small_generated_topology(5, 2, 10);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.clear();
  AuricOptions options;
  options.learn_threads = 4;
  const AuricEngine engine(topo, schema, catalog, assignment, options);
  const std::vector<obs::SpanRecord> spans = recorder.records();

  const auto learn = std::find_if(spans.begin(), spans.end(), [](const obs::SpanRecord& s) {
    return s.name == "engine.learn";
  });
  ASSERT_NE(learn, spans.end());
  for (const char* phase :
       {"engine.learn.param_view", "engine.learn.dependency", "engine.learn.voting"}) {
    std::size_t count = 0;
    for (const obs::SpanRecord& s : spans) {
      if (s.name != phase) continue;
      ++count;
      EXPECT_EQ(s.parent, learn->id) << phase;
      EXPECT_EQ(s.trace, learn->trace) << phase;
      EXPECT_GE(s.start_ns, learn->start_ns) << phase;
      EXPECT_LE(s.end_ns, learn->end_ns) << phase;
    }
    EXPECT_EQ(count, catalog.size()) << phase;
  }
}

}  // namespace
}  // namespace auric::core
