// The morsel-parallel driver (exec/parallel.h) must be invisible in the
// results: every algorithm, at every thread count, returns exactly the
// sequence the sequential path returns — same items, same order, same
// cardinality. The driver partitions a pattern operator's input tuples,
// so the tests that must reach it use per-row queries (a pattern under a
// `for`), and parallel_min_fanout is forced down so even the small test
// document actually morselizes.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/parallel.h"
#include "exec/pattern_eval.h"
#include "workload/xmark_gen.h"
#include "workload/xmark_queries.h"

namespace xqtp::exec {
namespace {

constexpr PatternAlgo kAllAlgos[] = {
    PatternAlgo::kNLJoin,    PatternAlgo::kStaircase, PatternAlgo::kTwig,
    PatternAlgo::kStream,    PatternAlgo::kTwigStack, PatternAlgo::kShredded,
};

EvalOptions ParallelOpts(PatternAlgo algo, int threads) {
  EvalOptions opts;
  opts.algo = algo;
  opts.threads = threads;
  // Small enough that the per-row XMark corpus queries morselize on a
  // 0.03-factor document; small morsels exercise the concatenation of
  // many per-morsel batches.
  opts.parallel_min_fanout = 4;
  return opts;
}

/// A per-row query: `$b/bidder[1]/increase` is one pattern evaluation per
/// open_auction tuple, so its pattern operator receives one input tuple
/// per auction and reaches the tuple-level driver (XMark XQ2).
constexpr const char* kPerRowQuery =
    "for $b in $input/site/open_auctions/open_auction "
    "return $b/bidder[1]/increase";

class ParallelEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::XmarkParams p;
    p.factor = 0.03;
    doc_ = engine_.AddDocument("x", workload::GenerateXmark(p, engine_.interner()));
  }

  engine::Engine engine_;
  const xml::Document* doc_;
};

// All six algorithms x {1, 2, 8} threads x the XMark query corpus,
// bit-identical to the Core interpreter — the independent reference,
// which shares no tuple operator or pattern algorithm with the plan
// evaluator — plus a tiny-batch leg so multi-row streams cross batch
// boundaries on the way into the morsel driver.
TEST_F(ParallelEvalTest, BitIdenticalAcrossThreadsAndAlgorithms) {
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc_->root())}}};
  for (const workload::XmarkQuery& q : workload::XmarkQueryCorpus()) {
    auto cq = engine_.Compile(q.text);
    ASSERT_TRUE(cq.ok()) << q.id << ": " << cq.status().ToString();
    auto ref = engine_.Execute(*cq, globals, EvalOptions{},
                               engine::PlanChoice::kCoreInterp);
    ASSERT_TRUE(ref.ok()) << q.id << " core-interp: "
                          << ref.status().ToString();
    for (PatternAlgo algo : kAllAlgos) {
      auto expect_ref = [&](const EvalOptions& opts, const std::string& leg) {
        auto res = engine_.Execute(*cq, globals, opts);
        ASSERT_TRUE(res.ok()) << q.id << " [" << PatternAlgoName(algo) << " "
                              << leg << "]: " << res.status().ToString();
        ASSERT_EQ(res->size(), ref->size())
            << q.id << " [" << PatternAlgoName(algo) << " " << leg << "]";
        for (size_t i = 0; i < res->size(); ++i) {
          ASSERT_TRUE((*res)[i] == (*ref)[i])
              << q.id << " [" << PatternAlgoName(algo) << " " << leg
              << "] item " << i;
        }
      };
      for (int threads : {1, 2, 8}) {
        expect_ref(ParallelOpts(algo, threads), "t" + std::to_string(threads));
      }
      // Tiny-batch leg: forces batch boundaries inside every multi-row
      // stream without multiplying the whole matrix.
      EvalOptions tiny = ParallelOpts(algo, 2);
      tiny.tuple_batch_rows = 3;
      expect_ref(tiny, "t2 batch_rows=3");
    }
  }
}

// The cost-based meta-algorithm resolves its choice per morsel (each
// worker has its own chooser); it must agree with itself across thread
// counts.
TEST_F(ParallelEvalTest, CostBasedAgreesAcrossThreads) {
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc_->root())}}};
  auto cq = engine_.Compile(kPerRowQuery);
  ASSERT_TRUE(cq.ok());
  auto ref = engine_.Execute(*cq, globals,
                             ParallelOpts(PatternAlgo::kCostBased, 1));
  ASSERT_TRUE(ref.ok());
  ASSERT_FALSE(ref->empty());
  for (int threads : {2, 8}) {
    int64_t before = ParallelEvaluationCountForTesting();
    auto res = engine_.Execute(*cq, globals,
                               ParallelOpts(PatternAlgo::kCostBased, threads));
    ASSERT_TRUE(res.ok());
    EXPECT_GT(ParallelEvaluationCountForTesting(), before)
        << "t" << threads << " never reached the parallel driver";
    ASSERT_EQ(res->size(), ref->size());
    for (size_t i = 0; i < res->size(); ++i) {
      EXPECT_TRUE((*res)[i] == (*ref)[i]) << "item " << i;
    }
  }
}

// Empty-input edge case: a query whose context sequence is empty must
// return an empty sequence at every thread count without morselizing.
TEST_F(ParallelEvalTest, EmptyInput) {
  auto cq = engine_.Compile("$input//keyword");
  ASSERT_TRUE(cq.ok());
  engine::Engine::GlobalMap globals{{"input", {}}};
  for (PatternAlgo algo : kAllAlgos) {
    for (int threads : {1, 2, 8}) {
      auto res = engine_.Execute(*cq, globals, ParallelOpts(algo, threads));
      ASSERT_TRUE(res.ok())
          << PatternAlgoName(algo) << " t" << threads << ": "
          << res.status().ToString();
      EXPECT_TRUE(res->empty()) << PatternAlgoName(algo) << " t" << threads;
    }
  }
}

// A per-row pattern matching nothing (no bidder has a site child)
// exercises the concatenation of all-empty morsel batches. The
// positional step keeps the pattern per row, as in kPerRowQuery.
TEST_F(ParallelEvalTest, EmptyResultAfterMorselizing) {
  auto cq = engine_.Compile(
      "for $b in $input/site/open_auctions/open_auction "
      "return $b/bidder[1]/site");
  ASSERT_TRUE(cq.ok());
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc_->root())}}};
  for (PatternAlgo algo : kAllAlgos) {
    for (int threads : {2, 8}) {
      int64_t before = ParallelEvaluationCountForTesting();
      auto res = engine_.Execute(*cq, globals, ParallelOpts(algo, threads));
      ASSERT_TRUE(res.ok()) << PatternAlgoName(algo) << " t" << threads;
      EXPECT_GT(ParallelEvaluationCountForTesting(), before)
          << PatternAlgoName(algo) << " t" << threads
          << " never reached the parallel driver";
      EXPECT_TRUE(res->empty()) << PatternAlgoName(algo) << " t" << threads;
    }
  }
}

// Fallback edge cases, both bit-identical to the sequential run:
//  - with the fan-out floor above the input-tuple count, the evaluator
//    never hands the per-row pattern to the driver;
//  - a pattern fed ONE tuple at parallel_min_fanout = 1 enters the driver
//    but forms a single morsel, which runs on the calling thread.
// The control run at the default test floor proves the per-row query
// does reach the driver, so neither check can pass vacuously.
TEST_F(ParallelEvalTest, SingleMorselFallsBackToSequential) {
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc_->root())}}};
  auto per_row = engine_.Compile(kPerRowQuery);
  ASSERT_TRUE(per_row.ok());
  auto one_tuple = engine_.Compile("$input//person[emailaddress]/name");
  ASSERT_TRUE(one_tuple.ok());
  auto expect_same = [&](const engine::CompiledQuery& cq,
                         const EvalOptions& opts, PatternAlgo algo) {
    auto ref = engine_.Execute(cq, globals, ParallelOpts(algo, 1));
    ASSERT_TRUE(ref.ok()) << PatternAlgoName(algo);
    ASSERT_FALSE(ref->empty()) << PatternAlgoName(algo);
    auto res = engine_.Execute(cq, globals, opts);
    ASSERT_TRUE(res.ok()) << PatternAlgoName(algo);
    ASSERT_EQ(res->size(), ref->size()) << PatternAlgoName(algo);
    for (size_t i = 0; i < res->size(); ++i) {
      EXPECT_TRUE((*res)[i] == (*ref)[i])
          << PatternAlgoName(algo) << " item " << i;
    }
  };
  for (PatternAlgo algo : kAllAlgos) {
    int64_t before = ParallelEvaluationCountForTesting();
    EvalOptions high_floor = ParallelOpts(algo, 8);
    high_floor.parallel_min_fanout = 1 << 30;  // never reached
    expect_same(*per_row, high_floor, algo);
    EvalOptions unit_floor = ParallelOpts(algo, 8);
    unit_floor.parallel_min_fanout = 1;  // one tuple: one morsel
    expect_same(*one_tuple, unit_floor, algo);
    EXPECT_EQ(ParallelEvaluationCountForTesting(), before)
        << PatternAlgoName(algo) << ": a fallback run fanned out";

    expect_same(*per_row, ParallelOpts(algo, 8), algo);
    EXPECT_GT(ParallelEvaluationCountForTesting(), before)
        << PatternAlgoName(algo)
        << ": control failed, the per-row query never reached the driver";
  }
}

// Regression for the BENCH_smoke.json scaling cliff ($input//item//location
// NLJoin: 528µs @2t → 618µs @4t → 717µs @8t before the clamp): the driver
// must size pool and morsels by the work actually available — one thread
// per min_fanout units — instead of the requested maximum, so an
// 8-thread request over a ~1000-candidate fan-out runs ~3 threads wide.
TEST(ThreadClampTest, EffectiveThreadsTrackAvailableMorsels) {
  // The bench shape: 1020 //item candidates, default min_fanout 256.
  EXPECT_EQ(ClampParallelThreads(1020, 8, 256), 3);
  EXPECT_EQ(ClampParallelThreads(1020, 4, 256), 3);
  EXPECT_EQ(ClampParallelThreads(1020, 2, 256), 2);
  // Plenty of units: the requested width is honored.
  EXPECT_EQ(ClampParallelThreads(8 * 256, 8, 256), 8);
  EXPECT_EQ(ClampParallelThreads(100000, 8, 256), 8);
  // The floor is 2: the min_fanout gate (not the clamp) decides whether
  // parallelism happens at all, so tiny-but-eligible fan-outs keep their
  // two-way split (the translation-validation oracle relies on this).
  EXPECT_EQ(ClampParallelThreads(4, 8, 4), 2);
  EXPECT_EQ(ClampParallelThreads(2, 2, 2), 2);
  // Sequential requests pass through untouched.
  EXPECT_EQ(ClampParallelThreads(1020, 1, 256), 1);
  EXPECT_EQ(ClampParallelThreads(1020, 0, 256), 0);
  // Degenerate min_fanout never divides by zero.
  EXPECT_EQ(ClampParallelThreads(1020, 8, 0), 8);
}

// ThreadPool plumbing: ResolveThreads maps the EvalOptions encoding to an
// actual worker count.
TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1);  // auto: hardware threads
  EXPECT_EQ(ThreadPool::ResolveThreads(1), 1);
  EXPECT_EQ(ThreadPool::ResolveThreads(2), 2);
  EXPECT_EQ(ThreadPool::ResolveThreads(8), 8);
}

// The pool's batch protocol: every index claimed exactly once, across
// repeated batches (generation counter resets next_ correctly).
TEST(ThreadPoolTest, RunClaimsEachIndexOnce) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::atomic<int>> hits(97);
    for (auto& h : hits) h.store(0);
    pool.Run(static_cast<int>(hits.size()),
             [&hits](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, RunWithZeroCountIsANoOp) {
  ThreadPool pool(2);
  pool.Run(0, [](int) { FAIL() << "fn called for empty batch"; });
}

// The cost model never picks the shredded algorithm, so a cost-based run
// pre-warms only the tag streams: the document's relational NodeTable
// (storage/node_table.h, ~a node's worth of bytes per node) is built for
// kShredded alone. The per-row increase step runs on the tuple-level
// morsel driver.
TEST_F(ParallelEvalTest, CostBasedParallelRunBuildsNoNodeTable) {
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc_->root())}}};
  auto cq = engine_.Compile("$input//open_auction/bidder[1]/increase");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  int64_t before = ParallelEvaluationCountForTesting();
  auto cb = engine_.Execute(*cq, globals,
                            ParallelOpts(PatternAlgo::kCostBased, 2));
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  EXPECT_GT(ParallelEvaluationCountForTesting(), before)
      << "the query never reached the parallel driver";
  EXPECT_EQ(doc_->FindExtension(), nullptr)
      << "a cost-based run built the shredded NodeTable";

  // Control: the shredded algorithm on the same path does build it.
  auto sh = engine_.Execute(*cq, globals,
                            ParallelOpts(PatternAlgo::kShredded, 2));
  ASSERT_TRUE(sh.ok()) << sh.status().ToString();
  EXPECT_NE(doc_->FindExtension(), nullptr);
  EXPECT_EQ(*cb, *sh);
}

}  // namespace
}  // namespace xqtp::exec
