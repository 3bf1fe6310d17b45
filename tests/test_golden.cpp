// Golden recommendation digest over the seed-1 default CLI world
// (`--markets 28 --scale 55`, 13,470 carriers): every recommendation's
// value, source, votes, group size, support and margin, plus the backoff
// level BackoffVoting decides at, folded into one FNV-1a digest per section
// and compared with the digests checked in below. The voting kernel may be
// re-implemented any way it likes; it may not change a single answer. On a
// mismatch the failure message prints the new digest.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "core/engine.h"
#include "netsim/generator.h"
#include "util/rng.h"

namespace auric::core {
namespace {

/// FNV-1a over the little-endian bytes of each folded field.
class Digest {
 public:
  template <typename T>
  void add(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
  }

  void add(const Recommendation& rec) {
    add(rec.param);
    add(rec.value);
    add(static_cast<std::int32_t>(rec.source));
    add(rec.votes);
    add(rec.group_size);
    add(rec.support);
    add(rec.margin);
  }

  void add(const std::optional<BackoffVoting::Decision>& decision) {
    add(decision.has_value());
    if (!decision) return;
    add(decision->level);
    add(decision->vote.label);
    add(decision->vote.count);
    add(decision->vote.runner_up);
    add(decision->vote.group_size);
  }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The world `auric serve` / `auric replay` build with no --data.
struct DefaultWorld {
  netsim::Topology topology;
  netsim::AttributeSchema schema;
  config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::ConfigAssignment assignment;
  std::unique_ptr<AuricEngine> local;
  std::unique_ptr<AuricEngine> global;

  DefaultWorld() {
    netsim::TopologyParams params;
    params.seed = 1;
    params.num_markets = 28;
    params.base_enodebs_per_market = 55;
    topology = netsim::generate_topology(params);
    schema = netsim::AttributeSchema::standard(topology);
    config::GroundTruthParams gt;
    gt.seed = params.seed + 6;
    assignment = config::GroundTruthModel(topology, schema, catalog, gt).assign();
    local = std::make_unique<AuricEngine>(topology, schema, catalog, assignment);
    AuricOptions global_options;
    global_options.use_proximity = false;
    global = std::make_unique<AuricEngine>(topology, schema, catalog, assignment, global_options);
  }
};

const DefaultWorld& world() {
  static const DefaultWorld w;
  return w;
}

/// A seeded sample of X2 edges (from, to).
std::vector<std::pair<netsim::CarrierId, netsim::CarrierId>> edge_sample(std::size_t n,
                                                                         std::uint64_t seed) {
  const netsim::Topology& topo = world().topology;
  util::Rng rng(seed);
  std::vector<std::pair<netsim::CarrierId, netsim::CarrierId>> out;
  for (std::size_t i : rng.sample_indices(topo.edge_count(), n)) {
    out.emplace_back(topo.edges[i].from, topo.edges[i].to);
  }
  return out;
}

std::string singular_digest(const AuricEngine& engine, bool exclude_self) {
  Digest d;
  for (const netsim::Carrier& c : world().topology.carriers) {
    for (const Recommendation& rec : engine.recommend_singular(c.id, exclude_self)) d.add(rec);
  }
  return d.hex();
}

std::string pairwise_digest(const AuricEngine& engine, bool exclude_self) {
  Digest d;
  for (const auto& [from, to] : edge_sample(3000, 11)) {
    for (const Recommendation& rec : engine.recommend_pairwise(from, to, exclude_self)) {
      d.add(rec);
    }
  }
  return d.hex();
}

TEST(GoldenDigest, SingularEveryCarrierLocalEngine) {
  EXPECT_EQ(singular_digest(*world().local, true), "dbca544f2adcc768");
  EXPECT_EQ(singular_digest(*world().local, false), "eebb13991ca89ce3");
}

TEST(GoldenDigest, SingularEveryCarrierGlobalEngine) {
  EXPECT_EQ(singular_digest(*world().global, true), "6bac6c45a7d346e0");
  EXPECT_EQ(singular_digest(*world().global, false), "59526ce223015196");
}

TEST(GoldenDigest, PairwiseEdgeSample) {
  EXPECT_EQ(pairwise_digest(*world().local, true), "23338e09e0a3f704");
  EXPECT_EQ(pairwise_digest(*world().local, false), "3559e02099d257d3");
  EXPECT_EQ(pairwise_digest(*world().global, true), "f5df42c8b09a1cb6");
  EXPECT_EQ(pairwise_digest(*world().global, false), "4775314f6b55f499");
}

/// Out-of-inventory carriers: copies of existing carriers planned into
/// their neighborhood, a third of them with an attribute value the inventory
/// never saw (the §6 bootstrap path), recommended for every singular
/// parameter and one pair-wise relation each.
TEST(GoldenDigest, ColdStartSample) {
  const DefaultWorld& w = world();
  util::Rng rng(23);
  Digest local, global;
  for (int i = 0; i < 400; ++i) {
    const auto id = static_cast<netsim::CarrierId>(
        rng.uniform_int(0, static_cast<std::int64_t>(w.topology.carrier_count()) - 1));
    netsim::Carrier planned = w.topology.carrier(id);
    if (i % 3 == 0) planned.hardware += 1000;  // unseen RRH model
    const auto& hood = w.topology.neighborhood(id);
    for (const AuricEngine* engine : {w.local.get(), w.global.get()}) {
      Digest& d = engine == w.local.get() ? local : global;
      for (const Recommendation& rec : engine->recommend_for_all_singular(planned, hood)) {
        d.add(rec);
      }
      if (hood.empty()) continue;
      const netsim::CarrierId neighbor = hood[static_cast<std::size_t>(i) % hood.size()];
      for (config::ParamId param : w.catalog.pairwise_ids()) {
        d.add(engine->recommend_for(planned, hood, param, neighbor));
      }
    }
  }
  EXPECT_EQ(local.hex(), "c9128cdd85a731c9");
  EXPECT_EQ(global.hex(), "a3818f4ad8b7aa82");
}

/// The backoff level each vote decides at, straight from BackoffVoting:
/// local (plain and carrier-weighted), leave-one-out global, and plain
/// global, on a seeded (parameter, slot) sample.
TEST(GoldenDigest, BackoffLevelSample) {
  const DefaultWorld& w = world();
  const AuricEngine& engine = *w.local;
  util::Rng rng(31);
  std::vector<double> weights(w.topology.carrier_count());
  for (double& x : weights) x = rng.uniform(0.2, 1.8);
  Digest d;
  for (int i = 0; i < 20000; ++i) {
    const auto param = static_cast<config::ParamId>(
        rng.uniform_int(0, static_cast<std::int64_t>(w.catalog.size()) - 1));
    netsim::CarrierId carrier = static_cast<netsim::CarrierId>(
        rng.uniform_int(0, static_cast<std::int64_t>(w.topology.carrier_count()) - 1));
    netsim::CarrierId neighbor = netsim::kInvalidCarrier;
    if (w.catalog.at(param).kind == config::ParamKind::kPairwise) {
      const netsim::X2Edge& edge = w.topology.edges[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(w.topology.edge_count()) - 1))];
      carrier = edge.from;
      neighbor = edge.to;
    }
    const ParamView& view = engine.view(param);
    const BackoffVoting& voting = engine.voting(param);
    std::int64_t self_row = -1;
    for (std::uint32_t row : view.rows_of(carrier)) {
      if (view.neighbor[row] == neighbor) self_row = static_cast<std::int64_t>(row);
    }
    const auto& hood = w.topology.neighborhood(carrier);
    d.add(voting.local(view, hood, carrier, neighbor, self_row, 0.75));
    d.add(voting.local(view, hood, carrier, neighbor, self_row, 0.75, weights));
    d.add(voting.vote(carrier, neighbor, 0.75));
    if (self_row >= 0) {
      d.add(voting.vote_excluding(carrier, neighbor,
                                  view.label[static_cast<std::size_t>(self_row)], 0.75));
    }
  }
  EXPECT_EQ(d.hex(), "11c0aa7dbc9f66ac");
}

}  // namespace
}  // namespace auric::core
