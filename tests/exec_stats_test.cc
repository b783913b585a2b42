// Work-counter tests: the counters make the paper's Section 5 cost
// arguments observable and assertable.
#include <gtest/gtest.h>

#include <string>

#include "common/exec_stats.h"
#include "engine/engine.h"
#include "workload/member_gen.h"
#include "workload/xmark_gen.h"
#include "workload/xmark_queries.h"

namespace xqtp::exec {
namespace {

class ExecStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::MemberParams deep;
    deep.node_count = 20000;
    deep.max_depth = 15;
    deep.num_tags = 1;
    deep_ = engine_.AddDocument(
        "deep", workload::GenerateMember(deep, engine_.interner()));
  }

  ExecStats Measure(const std::string& q, PatternAlgo algo) {
    auto cq = engine_.Compile(q);
    EXPECT_TRUE(cq.ok()) << q;
    engine::Engine::GlobalMap globals{{"input", {xdm::Item(deep_->root())}}};
    ScopedExecStats scope;
    auto res = engine_.Execute(*cq, globals, algo);
    EXPECT_TRUE(res.ok()) << q;
    return scope.stats();
  }

  engine::Engine engine_;
  const xml::Document* deep_;
};

TEST_F(ExecStatsTest, CollectionIsOffByDefault) {
  EXPECT_EQ(CurrentExecStats(), nullptr);
  {
    ScopedExecStats scope;
    EXPECT_NE(CurrentExecStats(), nullptr);
    CountNodesVisited(5);
    EXPECT_EQ(scope.stats().nodes_visited, 5);
  }
  EXPECT_EQ(CurrentExecStats(), nullptr);
  CountNodesVisited(10);  // no-op, no crash
}

TEST_F(ExecStatsTest, ScopesNestWithoutLeaking) {
  ScopedExecStats outer;
  CountIndexEntries(3);
  {
    ScopedExecStats inner;
    CountIndexEntries(7);
    EXPECT_EQ(inner.stats().index_entries_scanned, 7);
  }
  EXPECT_EQ(outer.stats().index_entries_scanned, 3);
}

TEST_F(ExecStatsTest, AddIsAdditiveExceptPeakMemoryWhichIsHighWater) {
  // The morsel driver merges worker-scope counters with Add(): work
  // counters and governor checks sum, but peak_memory_bytes tracks one
  // shared accountant's high-water mark, so it merges by maximum.
  ExecStats a;
  a.nodes_visited = 10;
  a.governor_checks = 4;
  a.peak_memory_bytes = 1000;
  ExecStats b;
  b.nodes_visited = 5;
  b.governor_checks = 3;
  b.peak_memory_bytes = 700;
  a.Add(b);
  EXPECT_EQ(a.nodes_visited, 15);
  EXPECT_EQ(a.governor_checks, 7);
  EXPECT_EQ(a.peak_memory_bytes, 1000);  // max, not 1700
  b.peak_memory_bytes = 2000;
  a.Add(b);
  EXPECT_EQ(a.peak_memory_bytes, 2000);
  EXPECT_NE(a.ToString().find("governor_checks=10"), std::string::npos);
  EXPECT_NE(a.ToString().find("peak_memory_bytes=2000"), std::string::npos);
}

TEST_F(ExecStatsTest, Section53WorkAsymmetry) {
  // The paper's explanation of the (/t1[1])^k result, in counters: the
  // nested-loop join touches a tiny part of the tree; the staircase join
  // scans index windows per step.
  std::string q = "$input/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]";
  ExecStats nl = Measure(q, PatternAlgo::kNLJoin);
  ExecStats sc = Measure(q, PatternAlgo::kStaircase);
  EXPECT_GT(nl.nodes_visited, 0);
  EXPECT_LT(nl.nodes_visited, 200);  // first-child chain neighbourhood
  EXPECT_GT(sc.index_entries_scanned, 1000);  // window scans per step
  EXPECT_GT(sc.index_entries_scanned, nl.nodes_visited * 10);
}

TEST_F(ExecStatsTest, IndexAlgorithmsSkipRatherThanTraverse) {
  ExecStats sc = Measure("$input//t1[t1[t1]]", PatternAlgo::kStaircase);
  EXPECT_GT(sc.index_skips, 0);
  EXPECT_GT(sc.index_entries_scanned, 0);
  // The nested-loop evaluator on the same query touches every node it
  // traverses instead.
  ExecStats nl = Measure("$input//t1[t1[t1]]", PatternAlgo::kNLJoin);
  EXPECT_GT(nl.nodes_visited, 10000);
  EXPECT_EQ(nl.index_entries_scanned, 0);
}

TEST_F(ExecStatsTest, StreamingVisitsTheRegionOnce) {
  ExecStats st = Measure("$input//t1[t1]", PatternAlgo::kStream);
  // One start event per element in the region (19999 non-root elements),
  // counted once despite pattern-instance fan-out.
  EXPECT_GE(st.nodes_visited, 19000);
  EXPECT_LE(st.nodes_visited, 21000);
}

TEST_F(ExecStatsTest, PatternEvalsCounted) {
  ExecStats s = Measure("$input//t1", PatternAlgo::kNLJoin);
  EXPECT_EQ(s.pattern_evals, 1);  // a single TupleTreePattern evaluation
  EXPECT_NE(s.ToString().find("pattern_evals=1"), std::string::npos);
}

// Counter gate: the exact work every XMark corpus query does under each
// serving algorithm at threads = 1 on a factor-0.02 document. The
// counters are deterministic, so this gate costs no timing noise; a
// changed value means the evaluator did different work, and needs a
// CHANGES.md line that explains it. On a mismatch the failure message
// prints the measured row in table syntax.
struct GoldenCounters {
  const char* query;
  PatternAlgo algo;
  int64_t nodes_visited;
  int64_t index_entries_scanned;
  int64_t index_skips;
  int64_t pattern_evals;
  int64_t batches;
  int64_t tuples_materialized;
  int64_t cow_column_copies;
};

constexpr PatternAlgo kGateAlgos[] = {
    PatternAlgo::kNLJoin, PatternAlgo::kStaircase, PatternAlgo::kTwig,
    PatternAlgo::kCostBased};

// Columns: query, algo, nodes_visited, index_entries_scanned,
// index_skips, pattern_evals, batches, tuples_materialized,
// cow_column_copies.
// clang-format off
constexpr GoldenCounters kGolden[] = {
    {"XQ1", PatternAlgo::kNLJoin, 64, 0, 0, 3, 6, 55, 0},
    {"XQ1", PatternAlgo::kStaircase, 0, 54, 4, 3, 6, 55, 0},
    {"XQ1", PatternAlgo::kTwig, 0, 54, 4, 3, 6, 55, 0},
    {"XQ1", PatternAlgo::kCostBased, 0, 54, 4, 3, 6, 55, 0},
    {"XQ2", PatternAlgo::kNLJoin, 336, 0, 0, 46, 49, 123, 0},
    {"XQ2", PatternAlgo::kStaircase, 0, 104, 48, 46, 49, 123, 0},
    {"XQ2", PatternAlgo::kTwig, 0, 104, 48, 46, 49, 123, 0},
    {"XQ2", PatternAlgo::kCostBased, 0, 104, 48, 46, 49, 123, 0},
    {"XQ3", PatternAlgo::kNLJoin, 927, 0, 0, 92, 154, 117, 0},
    {"XQ3", PatternAlgo::kStaircase, 0, 118, 94, 92, 154, 117, 0},
    {"XQ3", PatternAlgo::kTwig, 0, 118, 94, 92, 154, 117, 0},
    {"XQ3", PatternAlgo::kCostBased, 0, 118, 94, 92, 154, 117, 0},
    {"XQ4", PatternAlgo::kNLJoin, 2718, 0, 0, 1, 2, 21, 0},
    {"XQ4", PatternAlgo::kStaircase, 0, 82, 26, 1, 2, 21, 0},
    {"XQ4", PatternAlgo::kTwig, 0, 82, 26, 1, 2, 21, 0},
    {"XQ4", PatternAlgo::kCostBased, 0, 82, 26, 1, 2, 21, 0},
    {"XQ5", PatternAlgo::kNLJoin, 142, 0, 0, 18, 37, 35, 0},
    {"XQ5", PatternAlgo::kStaircase, 0, 36, 20, 18, 37, 35, 0},
    {"XQ5", PatternAlgo::kTwig, 0, 36, 20, 18, 37, 35, 0},
    {"XQ5", PatternAlgo::kCostBased, 0, 36, 20, 18, 37, 35, 0},
    {"XQ6", PatternAlgo::kNLJoin, 48, 0, 0, 1, 2, 37, 0},
    {"XQ6", PatternAlgo::kStaircase, 0, 340, 9, 1, 2, 37, 0},
    {"XQ6", PatternAlgo::kTwig, 0, 340, 9, 1, 2, 37, 0},
    {"XQ6", PatternAlgo::kCostBased, 0, 340, 9, 1, 2, 37, 0},
    {"XQ7", PatternAlgo::kNLJoin, 242, 0, 0, 1, 2, 16, 0},
    {"XQ7", PatternAlgo::kStaircase, 0, 368, 58, 1, 2, 16, 0},
    {"XQ7", PatternAlgo::kTwig, 0, 368, 58, 1, 2, 16, 0},
    {"XQ7", PatternAlgo::kCostBased, 0, 368, 58, 1, 2, 16, 0},
    {"XQ8", PatternAlgo::kNLJoin, 664, 0, 0, 1, 2, 27, 0},
    {"XQ8", PatternAlgo::kStaircase, 0, 178, 128, 1, 2, 27, 0},
    {"XQ8", PatternAlgo::kTwig, 0, 178, 128, 1, 2, 27, 0},
    {"XQ8", PatternAlgo::kCostBased, 0, 178, 128, 1, 2, 27, 0},
    {"XQ13", PatternAlgo::kNLJoin, 227, 0, 0, 1, 2, 37, 0},
    {"XQ13", PatternAlgo::kStaircase, 0, 376, 45, 1, 2, 37, 0},
    {"XQ13", PatternAlgo::kTwig, 0, 376, 45, 1, 2, 37, 0},
    {"XQ13", PatternAlgo::kCostBased, 0, 376, 45, 1, 2, 37, 0},
    {"XQ14", PatternAlgo::kNLJoin, 406, 0, 0, 73, 76, 109, 0},
    {"XQ14", PatternAlgo::kStaircase, 0, 412, 81, 73, 76, 109, 0},
    {"XQ14", PatternAlgo::kTwig, 0, 412, 81, 73, 76, 109, 0},
    {"XQ14", PatternAlgo::kCostBased, 0, 412, 81, 73, 76, 109, 0},
    {"XQ15", PatternAlgo::kNLJoin, 447, 0, 0, 1, 2, 58, 0},
    {"XQ15", PatternAlgo::kStaircase, 0, 141, 85, 1, 2, 58, 0},
    {"XQ15", PatternAlgo::kTwig, 0, 141, 85, 1, 2, 58, 0},
    {"XQ15", PatternAlgo::kCostBased, 0, 141, 85, 1, 2, 58, 0},
    {"XQ17", PatternAlgo::kNLJoin, 317, 0, 0, 52, 68, 66, 0},
    {"XQ17", PatternAlgo::kStaircase, 0, 67, 54, 52, 68, 66, 0},
    {"XQ17", PatternAlgo::kTwig, 0, 67, 54, 52, 68, 66, 0},
    {"XQ17", PatternAlgo::kCostBased, 0, 67, 54, 52, 68, 66, 0},
    {"XQ19", PatternAlgo::kNLJoin, 2929, 0, 0, 1, 2, 37, 0},
    {"XQ19", PatternAlgo::kStaircase, 0, 72, 37, 1, 2, 37, 0},
    {"XQ19", PatternAlgo::kTwig, 0, 108, 73, 1, 2, 37, 0},
    {"XQ19", PatternAlgo::kCostBased, 0, 72, 37, 1, 2, 37, 0},
    {"XQ20", PatternAlgo::kNLJoin, 5466, 0, 0, 53, 98, 137, 0},
    {"XQ20", PatternAlgo::kStaircase, 0, 186, 104, 53, 98, 137, 0},
    {"XQ20", PatternAlgo::kTwig, 0, 270, 188, 53, 98, 137, 0},
    {"XQ20", PatternAlgo::kCostBased, 0, 186, 104, 53, 98, 137, 0},
};
// clang-format on

const char* AlgoEnumName(PatternAlgo algo) {
  switch (algo) {
    case PatternAlgo::kNLJoin: return "kNLJoin";
    case PatternAlgo::kStaircase: return "kStaircase";
    case PatternAlgo::kTwig: return "kTwig";
    case PatternAlgo::kCostBased: return "kCostBased";
    default: return "?";
  }
}

std::string GoldenRow(const std::string& query, PatternAlgo algo,
                      const ExecStats& s) {
  return "{\"" + query + "\", PatternAlgo::" + AlgoEnumName(algo) + ", " +
         std::to_string(s.nodes_visited) + ", " +
         std::to_string(s.index_entries_scanned) + ", " +
         std::to_string(s.index_skips) + ", " +
         std::to_string(s.pattern_evals) + ", " +
         std::to_string(s.batches) + ", " +
         std::to_string(s.tuples_materialized) + ", " +
         std::to_string(s.cow_column_copies) + "},";
}

TEST(ExecStatsGateTest, XmarkCorpusCountersArePinned) {
  engine::Engine engine;
  workload::XmarkParams p;
  p.factor = 0.02;
  const xml::Document* doc = engine.AddDocument(
      "x", workload::GenerateXmark(p, engine.interner()));
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc->root())}}};
  size_t checked = 0;
  for (const workload::XmarkQuery& q : workload::XmarkQueryCorpus()) {
    auto cq = engine.Compile(q.text);
    ASSERT_TRUE(cq.ok()) << q.id << ": " << cq.status().ToString();
    for (PatternAlgo algo : kGateAlgos) {
      EvalOptions opts;
      opts.algo = algo;
      opts.threads = 1;
      ExecStats s;
      {
        ScopedExecStats scope;
        auto res = engine.Execute(*cq, globals, opts);
        ASSERT_TRUE(res.ok()) << q.id << ": " << res.status().ToString();
        s = scope.stats();
      }
      const GoldenCounters* g = nullptr;
      for (const GoldenCounters& row : kGolden) {
        if (q.id == row.query && row.algo == algo) g = &row;
      }
      const std::string measured = GoldenRow(q.id, algo, s);
      if (g == nullptr) {
        ADD_FAILURE() << "no golden row; measured:\n  " << measured;
        continue;
      }
      ++checked;
      EXPECT_EQ(s.nodes_visited, g->nodes_visited) << measured;
      EXPECT_EQ(s.index_entries_scanned, g->index_entries_scanned) << measured;
      EXPECT_EQ(s.index_skips, g->index_skips) << measured;
      EXPECT_EQ(s.pattern_evals, g->pattern_evals) << measured;
      EXPECT_EQ(s.batches, g->batches) << measured;
      EXPECT_EQ(s.tuples_materialized, g->tuples_materialized) << measured;
      EXPECT_EQ(s.cow_column_copies, g->cow_column_copies) << measured;
    }
  }
  // Every golden row was exercised: the table and the corpus agree.
  EXPECT_EQ(checked, sizeof(kGolden) / sizeof(kGolden[0]));
}

}  // namespace
}  // namespace xqtp::exec
