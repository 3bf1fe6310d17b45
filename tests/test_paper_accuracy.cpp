// The paper-facing collaborative-filtering accuracy numbers of
// EXPERIMENTS.md, pinned exactly at seed 1 on the default world
// (`--markets 28 --scale 55`): Table 4's CF column and §4.3.2's global ->
// local comparison. The headline percentages are compared as printed (two
// decimals) and the integer correct/row counts behind them exactly, so any
// change to the voting kernel that moves a single leave-one-out answer
// fails here.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "eval/cf_eval.h"
#include "netsim/generator.h"
#include "util/strings.h"

namespace auric::eval {
namespace {

struct Counts {
  std::size_t correct = 0;
  std::size_t rows = 0;
};

Counts totals(const std::vector<CfParamResult>& results) {
  Counts c;
  for (const CfParamResult& r : results) {
    c.correct += r.correct;
    c.rows += r.rows;
  }
  return c;
}

TEST(PaperAccuracy, Table4AndSection432AtSeed1) {
  netsim::TopologyParams params;
  params.seed = 1;
  params.num_markets = 28;
  params.base_enodebs_per_market = 55;
  const netsim::Topology topology = netsim::generate_topology(params);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topology);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::GroundTruthParams gt;
  gt.seed = params.seed + 6;
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topology, schema, catalog, gt).assign();

  CfEvalOptions local_options;
  local_options.local = true;
  const CfEvaluator global_eval(topology, schema, catalog, assignment, CfEvalOptions{});
  const CfEvaluator local_eval(topology, schema, catalog, assignment, local_options);

  // Per-market results, as bench_sec432_proximity and (for the first four
  // markets, global learner) bench_table4_global_accuracy compute them.
  double global_sum = 0.0, local_sum = 0.0, global_deep = 0.0, local_deep = 0.0;
  double table4_weighted = 0.0, table4_rows = 0.0;
  Counts global_four, local_four, global_all, local_all;
  for (int m = 0; m < params.num_markets; ++m) {
    const auto market = static_cast<netsim::MarketId>(m);
    const std::vector<CfParamResult> g = global_eval.evaluate_all(market);
    const std::vector<CfParamResult> l = local_eval.evaluate_all(market);
    const double gp = 100.0 * overall_accuracy(g);
    const double lp = 100.0 * overall_accuracy(l);
    global_sum += gp;
    local_sum += lp;
    const Counts gc = totals(g), lc = totals(l);
    global_all.correct += gc.correct;
    global_all.rows += gc.rows;
    local_all.correct += lc.correct;
    local_all.rows += lc.rows;
    if (m < 4) {
      global_deep += gp;
      local_deep += lp;
      global_four.correct += gc.correct;
      global_four.rows += gc.rows;
      local_four.correct += lc.correct;
      local_four.rows += lc.rows;
      for (const CfParamResult& r : g) {
        if (r.rows == 0) continue;
        table4_weighted += r.accuracy() * static_cast<double>(r.rows);
        table4_rows += static_cast<double>(r.rows);
      }
    }
  }

  // Table 4, "All four" row, CF column.
  EXPECT_EQ(util::format_fixed(100.0 * table4_weighted / table4_rows, 2), "95.46");
  // §4.3.2: mean of per-market accuracies.
  EXPECT_EQ(util::format_fixed(global_deep / 4.0, 2), "95.40");
  EXPECT_EQ(util::format_fixed(local_deep / 4.0, 2), "95.88");
  EXPECT_EQ(util::format_fixed(global_sum / params.num_markets, 2), "95.20");
  EXPECT_EQ(util::format_fixed(local_sum / params.num_markets, 2), "95.59");

  // The integer counts behind them.
  EXPECT_EQ(global_four.correct, 161495u);
  EXPECT_EQ(global_four.rows, 169170u);
  EXPECT_EQ(local_four.correct, 162268u);
  EXPECT_EQ(global_all.correct, 1034450u);
  EXPECT_EQ(global_all.rows, 1086528u);
  EXPECT_EQ(local_all.correct, 1038753u);
}

}  // namespace
}  // namespace auric::eval
