#include "core/dependency.h"

#include <algorithm>
#include <bit>

#include <gtest/gtest.h>

#include "test_helpers.h"
#include "util/rng.h"

namespace auric::core {
namespace {

struct Fixture {
  netsim::Topology topo = test::small_generated_topology(5, 2, 25);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  std::vector<std::vector<netsim::AttrCode>> codes = schema.encode_all(topo);
  config::ParamCatalog catalog = test::tiny_catalog();
};

/// Builds a singular view whose value is a pure function of one attribute.
ParamView planted_view(const Fixture& f, const std::string& attr_name) {
  const std::size_t attr = f.schema.index_of(attr_name);
  config::ConfigAssignment assignment;
  assignment.singular.resize(1);
  auto& col = assignment.singular[0];
  col.value.resize(f.topo.carrier_count());
  col.intended.resize(f.topo.carrier_count());
  col.cause.assign(f.topo.carrier_count(), config::Cause::kAttributeRule);
  for (std::size_t c = 0; c < f.topo.carrier_count(); ++c) {
    col.value[c] = f.codes[attr][c] % 11;
    col.intended[c] = col.value[c];
  }
  assignment.pairwise.resize(1);
  assignment.pairwise[0].value.assign(f.topo.edge_count(), config::kUnset);
  assignment.pairwise[0].intended.assign(f.topo.edge_count(), config::kUnset);
  assignment.pairwise[0].cause.assign(f.topo.edge_count(), config::Cause::kDefault);
  return build_param_view(f.topo, f.catalog, assignment, 0);
}

TEST(Dependency, DiscoversPlantedAttribute) {
  Fixture f;
  const ParamView view = planted_view(f, "morphology");
  const DependencyModel model = learn_dependencies(view, f.codes, f.schema, {});
  ASSERT_FALSE(model.dependent.empty());
  // The causal attribute must be the top-ranked dependent.
  EXPECT_EQ(model.dependent.front().attr, f.schema.index_of("morphology"));
  EXPECT_FALSE(model.dependent.front().neighbor_side);
}

TEST(Dependency, IndependentLabelsFlagNothing) {
  Fixture f;
  ParamView view = planted_view(f, "morphology");
  // Replace labels by a hash of the carrier id: independent of every attr.
  for (std::size_t r = 0; r < view.rows(); ++r) {
    view.value[r] = static_cast<config::ValueIndex>(
        util::hash_combine({99, static_cast<std::uint64_t>(view.carrier[r])}) % 5);
  }
  view.labels = ml::LabelDictionary::build(view.value);
  for (std::size_t r = 0; r < view.rows(); ++r) {
    view.label[r] = view.labels.code_of(view.value[r]);
  }
  const DependencyModel model = learn_dependencies(view, f.codes, f.schema, {});
  // At p=0.01 over 14 tests, allow at most one false positive.
  EXPECT_LE(model.dependent.size(), 1u);
}

TEST(Dependency, MaxDependentCapsStrongestFirst) {
  Fixture f;
  const ParamView view = planted_view(f, "carrier_frequency");
  DependencyOptions tight;
  tight.max_dependent = 2;
  const DependencyModel capped = learn_dependencies(view, f.codes, f.schema, tight);
  EXPECT_LE(capped.dependent.size(), 2u);
  DependencyOptions loose;
  loose.max_dependent = 0;  // unlimited
  const DependencyModel full = learn_dependencies(view, f.codes, f.schema, loose);
  EXPECT_GE(full.dependent.size(), capped.dependent.size());
  // The capped set must be a prefix of the full ranked set.
  for (std::size_t i = 0; i < capped.dependent.size(); ++i) {
    EXPECT_EQ(capped.dependent[i], full.dependent[i]);
  }
}

TEST(Dependency, TestsEveryAttributeOnce) {
  Fixture f;
  const ParamView view = planted_view(f, "vendor");
  const DependencyModel model = learn_dependencies(view, f.codes, f.schema, {});
  EXPECT_EQ(model.tests.size(), f.schema.attribute_count());  // singular: carrier side only
  for (const DependencyTest& test : model.tests) EXPECT_FALSE(test.ref.neighbor_side);
}

TEST(Dependency, PairwiseTestsNeighborSideToo) {
  Fixture f;
  config::ConfigAssignment assignment;
  assignment.singular.resize(1);
  assignment.singular[0].value.assign(f.topo.carrier_count(), config::kUnset);
  assignment.singular[0].intended.assign(f.topo.carrier_count(), config::kUnset);
  assignment.singular[0].cause.assign(f.topo.carrier_count(), config::Cause::kDefault);
  assignment.pairwise.resize(1);
  auto& col = assignment.pairwise[0];
  col.value.resize(f.topo.edge_count());
  col.intended.resize(f.topo.edge_count());
  col.cause.assign(f.topo.edge_count(), config::Cause::kAttributeRule);
  const std::size_t freq = f.schema.index_of("carrier_frequency");
  for (std::size_t e = 0; e < f.topo.edge_count(); ++e) {
    const auto& edge = f.topo.edges[e];
    const bool intra = f.topo.carrier(edge.from).frequency_mhz ==
                       f.topo.carrier(edge.to).frequency_mhz;
    if (!intra) {
      col.value[e] = col.intended[e] = config::kUnset;
      continue;
    }
    // Value keyed on the NEIGHBOR's frequency code.
    col.value[e] = f.codes[freq][static_cast<std::size_t>(edge.to)] % 11;
    col.intended[e] = col.value[e];
  }
  const ParamView view = build_param_view(f.topo, f.catalog, assignment, 1);
  const DependencyModel model = learn_dependencies(view, f.codes, f.schema, {});
  EXPECT_EQ(model.tests.size(), 2 * f.schema.attribute_count());
  ASSERT_FALSE(model.dependent.empty());
}

/// A seeded assignment: the singular column mixes one attribute's code with
/// noise and leaves ~1/8 of the slots unset; the pair-wise column does the
/// same on the neighbor's side.
config::ConfigAssignment seeded_assignment(const Fixture& f, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t morph = f.schema.index_of("morphology");
  const std::size_t freq = f.schema.index_of("carrier_frequency");
  const auto draw = [&rng](std::int32_t code, int domain) -> config::ValueIndex {
    if (rng.bernoulli(0.125)) return config::kUnset;
    if (rng.bernoulli(0.7)) return code % domain;
    return static_cast<config::ValueIndex>(rng.uniform_int(0, domain - 1));
  };
  config::ConfigAssignment assignment;
  assignment.singular.resize(1);
  auto& s = assignment.singular[0];
  s.cause.assign(f.topo.carrier_count(), config::Cause::kAttributeRule);
  for (std::size_t c = 0; c < f.topo.carrier_count(); ++c) {
    s.value.push_back(draw(f.codes[morph][c], 11));
  }
  s.intended = s.value;
  assignment.pairwise.resize(1);
  auto& p = assignment.pairwise[0];
  p.cause.assign(f.topo.edge_count(), config::Cause::kAttributeRule);
  for (const netsim::X2Edge& edge : f.topo.edges) {
    p.value.push_back(draw(f.codes[freq][static_cast<std::size_t>(edge.to)], 21));
  }
  p.intended = p.value;
  return assignment;
}

void expect_same_bits(const ml::ChiSquareResult& a, const ml::ChiSquareResult& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.statistic), std::bit_cast<std::uint64_t>(b.statistic));
  EXPECT_EQ(a.df, b.df);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.p_value), std::bit_cast<std::uint64_t>(b.p_value));
}

// build_contingency tallies one table at a time over the subject column; the
// oracle is the row-at-a-time ContingencyState::apply path incremental
// relearn maintains. Every count, total and chi-square bit must agree.
TEST(Contingency, OnePassTallyMatchesTheRowAtATimeOracle) {
  Fixture f;
  for (std::uint64_t seed : {5u, 17u, 29u}) {
    const config::ConfigAssignment assignment = seeded_assignment(f, seed);
    for (config::ParamId param : {0, 1}) {
      const ParamView view = build_param_view(f.topo, f.catalog, assignment, param);
      ASSERT_GT(view.rows(), 0u);
      const ContingencyState built = build_contingency(view, f.codes, f.schema);

      ContingencyState oracle;
      oracle.refs = built.refs;
      for (const AttrRef& ref : oracle.refs) {
        oracle.tables.push_back(
            ml::ContingencyTable::zeros(f.schema.cardinality(ref.attr), view.labels.size()));
      }
      for (std::size_t r = 0; r < view.rows(); ++r) {
        oracle.apply(f.codes, view.carrier[r], view.neighbor[r], view.label[r], 1);
      }

      ASSERT_EQ(built.refs.size(), view.pairwise ? 2 * f.schema.attribute_count()
                                                 : f.schema.attribute_count());
      ASSERT_EQ(built.tables.size(), oracle.tables.size());
      bool any_dependent = false;
      for (std::size_t i = 0; i < built.tables.size(); ++i) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " param " + std::to_string(param) +
                     " table " + std::to_string(i));
        const ml::ContingencyTable& got = built.tables[i];
        const ml::ContingencyTable& want = oracle.tables[i];
        EXPECT_EQ(got.rows, want.rows);
        EXPECT_EQ(got.cols, want.cols);
        EXPECT_EQ(got.counts, want.counts);
        EXPECT_EQ(got.total, want.total);
        EXPECT_EQ(got.total, static_cast<std::int64_t>(view.rows()));
        const ml::ChiSquareResult result = ml::chi_square_test(got);
        expect_same_bits(result, ml::chi_square_test(want));
        any_dependent = any_dependent || result.dependent(0.01);
      }
      EXPECT_TRUE(any_dependent);  // the planted attribute shows up
    }
  }
}

TEST(Dependency, AttrRefNames) {
  Fixture f;
  EXPECT_EQ(attr_ref_name({false, f.schema.index_of("morphology")}, f.schema), "morphology");
  EXPECT_EQ(attr_ref_name({true, f.schema.index_of("morphology")}, f.schema), "nbr_morphology");
}

}  // namespace
}  // namespace auric::core
