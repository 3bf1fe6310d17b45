// ModelWatch + EngineDiff: the model-quality plane (DESIGN.md §17).
//
// Covers the per-parameter instrument registration (including the registry's
// 256-label-set cardinality cap and the over-cap degradation path), the
// day-over-day drift detectors (chi-square per parameter, PSI on the pooled
// support distribution), the KPI-gate outcome join, the /modelz document,
// and the relearn shadow-audit's engine diff.
#include "core/model_watch.h"

#include <array>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "core/engine.h"
#include "core/engine_diff.h"
#include "obs/metrics.h"
#include "test_helpers.h"

namespace auric::core {
namespace {

Recommendation rec_of(config::ParamId param, config::ValueIndex value,
                      RecommendationSource source, double support, double margin = 0.0) {
  Recommendation rec;
  rec.param = param;
  rec.value = value;
  rec.source = source;
  rec.support = support;
  rec.margin = margin;
  return rec;
}

TEST(ModelWatch, FullCatalogRegistersUnderTheLabelCap) {
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  ModelWatch watch(catalog, registry);

  // Every parameter gets its own label set on every family; the worst-case
  // family (3 sources x 65 params = 195 sets) stays under the 256 cap.
  EXPECT_EQ(registry.label_sets("auric_model_recommendations_total"), 3 * catalog.size());
  EXPECT_EQ(registry.label_sets("auric_model_gate_outcomes_total"), 2 * catalog.size());
  EXPECT_EQ(registry.label_sets("auric_model_support"), catalog.size());
  EXPECT_EQ(registry.label_sets("auric_model_margin"), catalog.size());
  EXPECT_EQ(registry.label_sets("auric_model_coverage"), catalog.size());
  EXPECT_EQ(registry.label_sets("auric_model_drift_chi2_p"), catalog.size());
  EXPECT_LE(registry.label_sets("auric_model_recommendations_total"), 256u);
  // Nothing was shunted to the shared unexported sink.
  EXPECT_EQ(registry.counter("obs_labels_dropped_total").value(), 0u);
}

TEST(ModelWatch, OverCapRegistryDegradesToTheSharedSinkSafely) {
  obs::MetricsRegistry registry;
  registry.set_label_limit(16);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  ModelWatch watch(catalog, registry);

  // Past the cap registrations land on the drop counter, not the exporter...
  EXPECT_LE(registry.label_sets("auric_model_recommendations_total"), 16u);
  EXPECT_GT(registry.counter("obs_labels_dropped_total").value(), 0u);

  // ...and recording through the degraded instruments is still safe.
  for (std::size_t p = 0; p < catalog.size(); ++p) {
    watch.record(rec_of(static_cast<config::ParamId>(p), 0,
                        RecommendationSource::kLocalVote, 0.9, 0.5));
  }
  watch.roll_day();
  EXPECT_EQ(watch.days_rolled(), 1);
}

TEST(ModelWatch, RecordMirrorsSourcesSupportAndCoverage) {
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = test::tiny_catalog();
  ModelWatch watch(catalog, registry);

  watch.record(rec_of(0, 3, RecommendationSource::kLocalVote, 1.0, 0.8));
  watch.record(rec_of(0, 3, RecommendationSource::kGlobalVote, 0.8, 0.4));
  watch.record(rec_of(0, 5, RecommendationSource::kRulebookDefault, 0.0));

  const std::string& name = catalog.at(0).name;
  EXPECT_EQ(registry
                .counter("auric_model_recommendations_total", "",
                         {{"param", name}, {"source", "local-vote"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .counter("auric_model_recommendations_total", "",
                         {{"param", name}, {"source", "global-vote"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .counter("auric_model_recommendations_total", "",
                         {{"param", name}, {"source", "rulebook-default"}})
                .value(),
            1u);
  std::vector<double> unit_bounds;
  for (int i = 1; i <= 10; ++i) unit_bounds.push_back(0.1 * i);
  EXPECT_EQ(
      registry.histogram("auric_model_support", unit_bounds, "", {{"param", name}}).count(),
      3u);

  // Coverage = voted / total, published at the day roll.
  watch.roll_day();
  EXPECT_NEAR(registry.gauge("auric_model_coverage", "", {{"param", name}}).value(), 2.0 / 3.0,
              1e-9);
}

/// record() is documented lock-free and safe from serve threads: eight
/// threads hammer one watch and every per-source counter, support histogram
/// and coverage ratio must come out exact.
TEST(ModelWatch, ConcurrentRecordCountsExactly) {
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  ModelWatch watch(catalog, registry);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 6000;
  const auto param_of = [&](int i) { return static_cast<config::ParamId>(i % catalog.size()); };
  const auto source_of = [](int i) { return static_cast<RecommendationSource>((i / 7) % 3); };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const RecommendationSource source = source_of(i);
        watch.record(rec_of(param_of(i), 0, source,
                            source == RecommendationSource::kRulebookDefault ? 0.0 : 0.9, 0.5));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<std::array<std::uint64_t, 3>> expected(catalog.size(), {0, 0, 0});
  for (int i = 0; i < kPerThread; ++i) {
    expected[static_cast<std::size_t>(param_of(i))][static_cast<std::size_t>(source_of(i))] +=
        kThreads;
  }
  std::vector<double> unit_bounds;
  for (int i = 1; i <= 10; ++i) unit_bounds.push_back(0.1 * i);
  watch.roll_day();
  for (std::size_t p = 0; p < catalog.size(); ++p) {
    const std::string& name = catalog.at(static_cast<config::ParamId>(p)).name;
    std::uint64_t total = 0;
    for (int s = 0; s < 3; ++s) {
      const char* source = recommendation_source_name(static_cast<RecommendationSource>(s));
      EXPECT_EQ(registry
                    .counter("auric_model_recommendations_total", "",
                             {{"param", name}, {"source", source}})
                    .value(),
                expected[p][static_cast<std::size_t>(s)])
          << name << " " << source;
      total += expected[p][static_cast<std::size_t>(s)];
    }
    EXPECT_EQ(registry.histogram("auric_model_support", unit_bounds, "", {{"param", name}}).count(),
              total);
    const double voted = static_cast<double>(total - expected[p][2]);
    EXPECT_EQ(registry.gauge("auric_model_coverage", "", {{"param", name}}).value(),
              voted / static_cast<double>(total));
  }
}

TEST(ModelWatch, GateOutcomesJoinBackToTheParameter) {
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = test::tiny_catalog();
  ModelWatch watch(catalog, registry);

  watch.record_gate_outcome(0, true);
  watch.record_gate_outcome(0, true);
  watch.record_gate_outcome(0, false);
  watch.record_gate_outcome(1, false);

  const std::string& name = catalog.at(0).name;
  EXPECT_EQ(registry
                .counter("auric_model_gate_outcomes_total", "",
                         {{"param", name}, {"outcome", "accepted"}})
                .value(),
            2u);
  EXPECT_EQ(registry
                .counter("auric_model_gate_outcomes_total", "",
                         {{"param", name}, {"outcome", "rolled_back"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .counter("auric_model_gate_outcomes_total", "",
                         {{"param", catalog.at(1).name}, {"outcome", "rolled_back"}})
                .value(),
            1u);
}

TEST(ModelWatch, ChiSquareFlagsAShiftedValueDistribution) {
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = test::tiny_catalog();
  ModelWatch watch(catalog, registry);

  // No drift verdict until two days of counts exist.
  EXPECT_DOUBLE_EQ(watch.drift_p(0), 1.0);

  const auto day_of = [&](config::ValueIndex value, int n) {
    for (int i = 0; i < n; ++i) {
      watch.record(rec_of(0, value, RecommendationSource::kLocalVote, 0.9, 0.6));
    }
    watch.roll_day();
  };

  day_of(3, 200);  // day 1: baseline
  day_of(3, 200);  // day 2: identical distribution
  EXPECT_GT(watch.drift_p(0), 0.5);
  EXPECT_EQ(watch.drifted_params(), 0u);

  day_of(9, 200);  // day 3: the recommended value moved wholesale
  EXPECT_LT(watch.drift_p(0), 0.01);
  EXPECT_EQ(watch.drifted_params(), 1u);
  EXPECT_LT(registry.gauge("auric_model_drift_chi2_p", "", {{"param", catalog.at(0).name}})
                .value(),
            0.01);
  EXPECT_DOUBLE_EQ(registry.gauge("auric_model_drift_params_flagged").value(), 1.0);
  EXPECT_EQ(registry.counter("auric_model_days_total").value(), 3u);
}

TEST(ModelWatch, PsiTracksTheSupportDistribution) {
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = test::tiny_catalog();
  ModelWatch watch(catalog, registry);

  const auto day_of = [&](double support, int n) {
    for (int i = 0; i < n; ++i) {
      watch.record(rec_of(0, 3, RecommendationSource::kLocalVote, support, 0.5));
    }
    watch.roll_day();
  };

  day_of(0.95, 300);
  day_of(0.95, 300);  // identical support profile: PSI ~ 0
  const double stable_psi = watch.psi();
  EXPECT_LT(stable_psi, 0.05);

  day_of(0.15, 300);  // support collapsed: PSI jumps
  EXPECT_GT(watch.psi(), stable_psi + 0.5);
  EXPECT_GT(registry.gauge("auric_model_drift_psi").value(), 0.5);
}

TEST(ModelWatch, ModelzJsonCarriesTheModelDocument) {
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = test::tiny_catalog();
  ModelWatch watch(catalog, registry);
  watch.record(rec_of(0, 3, RecommendationSource::kLocalVote, 1.0, 1.0));
  watch.record_gate_outcome(0, true);
  watch.roll_day();

  const std::string json = watch.modelz_json();
  EXPECT_NE(json.find("\"days\":1"), std::string::npos);
  EXPECT_NE(json.find("\"psi\":"), std::string::npos);
  EXPECT_NE(json.find("\"drift_alpha\":0.01"), std::string::npos);
  EXPECT_NE(json.find("\"params\":["), std::string::npos);
  EXPECT_NE(json.find("\"param\":\"toySingular\""), std::string::npos);
  EXPECT_NE(json.find("\"local\":1"), std::string::npos);
  EXPECT_NE(json.find("\"gate_accepted\":1"), std::string::npos);
  EXPECT_NE(json.find("\"drift_p\":"), std::string::npos);
}

TEST(ModelWatch, EngineRecordsEveryRecommendationThroughTheWatch) {
  obs::MetricsRegistry registry;
  const netsim::Topology topo = test::small_generated_topology(5, 2, 10);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();

  AuricEngine engine(topo, schema, catalog, assignment);
  ModelWatch watch(catalog, registry);
  engine.set_watch(&watch);

  const std::vector<Recommendation> recs = engine.recommend_singular(0);
  ASSERT_FALSE(recs.empty());

  // Every emitted recommendation landed in exactly one source series.
  std::uint64_t recorded = 0;
  for (std::size_t p = 0; p < catalog.size(); ++p) {
    const std::string& name = catalog.at(static_cast<config::ParamId>(p)).name;
    for (const char* source : {"local-vote", "global-vote", "rulebook-default"}) {
      recorded += registry
                      .counter("auric_model_recommendations_total", "",
                               {{"param", name}, {"source", source}})
                      .value();
    }
  }
  EXPECT_EQ(recorded, recs.size());
}

TEST(EngineDiff, SelfDiffReportsZeroFlips) {
  const netsim::Topology topo = test::small_generated_topology(5, 2, 10);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();
  const AuricEngine engine(topo, schema, catalog, assignment);

  const EngineDiffReport report = diff_engines(engine, engine, 0, 1);
  EXPECT_EQ(report.carriers_sampled, topo.carrier_count());
  EXPECT_EQ(report.slots_compared, topo.carrier_count() * catalog.singular_ids().size());
  EXPECT_EQ(report.flips, 0u);
  EXPECT_EQ(report.source_changes, 0u);
  EXPECT_DOUBLE_EQ(report.flip_rate, 0.0);
  EXPECT_DOUBLE_EQ(report.mean_support_delta, 0.0);
  EXPECT_TRUE(report.churn.empty());
}

TEST(EngineDiff, DegradedCandidateSurfacesFlipsAndChurn) {
  const netsim::Topology topo = test::small_generated_topology(5, 2, 10);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();
  const AuricEngine healthy(topo, schema, catalog, assignment);

  // A vote threshold above 1.0 can never be met: the candidate falls back to
  // the rule book everywhere — the degenerate model a shadow-audit exists to
  // catch before it serves.
  AuricOptions broken;
  broken.vote_threshold = 1.01;
  const AuricEngine fallback(topo, schema, catalog, assignment, broken);

  const EngineDiffReport report = diff_engines(healthy, fallback, 0, 1);
  EXPECT_GT(report.flips, 0u);
  EXPECT_GT(report.source_changes, 0u);
  EXPECT_GT(report.flip_rate, 0.0);
  EXPECT_LT(report.mean_support_delta, 0.0);  // defaults carry zero support
  ASSERT_FALSE(report.churn.empty());
  EXPECT_GE(report.churn.front().flips, report.churn.back().flips);

  const std::string json = report.json(3);
  EXPECT_NE(json.find("\"flip_rate\":"), std::string::npos);
  EXPECT_NE(json.find("\"top_churn\":["), std::string::npos);
  EXPECT_NE(report.text(3).find("value flips"), std::string::npos);
}

TEST(EngineDiff, SeededSampleIsDeterministic) {
  const netsim::Topology topo = test::small_generated_topology(5, 2, 10);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();
  const AuricEngine engine(topo, schema, catalog, assignment);
  AuricOptions global_only;
  global_only.use_proximity = false;
  const AuricEngine other(topo, schema, catalog, assignment, global_only);

  const EngineDiffReport a = diff_engines(engine, other, 10, 42);
  const EngineDiffReport b = diff_engines(engine, other, 10, 42);
  EXPECT_EQ(a.carriers_sampled, 10u);
  EXPECT_EQ(a.json(0), b.json(0));
}

TEST(EngineDiff, MismatchedEnginesThrow) {
  const netsim::Topology big = test::small_generated_topology(5, 2, 10);
  const netsim::Topology small = test::tiny_topology();
  const config::ParamCatalog catalog = config::ParamCatalog::standard();

  const netsim::AttributeSchema big_schema = netsim::AttributeSchema::standard(big);
  const config::ConfigAssignment big_assignment =
      config::GroundTruthModel(big, big_schema, catalog).assign();
  const AuricEngine big_engine(big, big_schema, catalog, big_assignment);

  const netsim::AttributeSchema small_schema = netsim::AttributeSchema::standard(small);
  const config::ConfigAssignment small_assignment =
      config::GroundTruthModel(small, small_schema, catalog).assign();
  const AuricEngine small_engine(small, small_schema, catalog, small_assignment);

  EXPECT_THROW(diff_engines(big_engine, small_engine, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace auric::core
