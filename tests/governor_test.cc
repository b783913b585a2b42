// Query resource governance (exec/governor.h): deadlines, cooperative
// cancellation, and memory budgets must interrupt a running query at the
// next check — at 1 thread and under the morsel-parallel driver — leave
// the engine reusable afterward, and record their telemetry in ExecStats.
// The recursion-depth bounds (XML parser, normalizer, rewriter) ride
// along: adversarial nesting returns kResourceExhausted, never a stack
// overflow.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/exec_stats.h"
#include "core/ast.h"
#include "core/rewrite.h"
#include "engine/engine.h"
#include "exec/governor.h"
#include "exec/parallel.h"
#include "exec/pattern_eval.h"
#include "workload/xmark_gen.h"
#include "xml/parser.h"

namespace xqtp::exec {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr PatternAlgo kAllAlgos[] = {
    PatternAlgo::kNLJoin,    PatternAlgo::kStaircase, PatternAlgo::kTwig,
    PatternAlgo::kStream,    PatternAlgo::kTwigStack, PatternAlgo::kShredded,
};

/// A quadratic self-product over the XMark people: the `$b` pattern runs
/// once per `$a` person and `$b/name` once per (a, b) pair, so at factor
/// 0.2 (~500 persons, ~250k pairs) it runs for over a hundred
/// milliseconds under every algorithm even in a Release build — long
/// enough that a 10ms deadline or a mid-query cancel always lands while
/// it is working, at any thread count. Both per-row patterns receive one
/// input tuple per binding, so at threads > 1 nearly all of that work
/// runs on the tuple-level morsel driver, which the query reaches right
/// after its single `$a` pattern evaluation (a short child chain under
/// NLJoin).
constexpr const char* kHeavyQuery =
    "for $a in $input/site/people/person, $b in $input//person "
    "return $b/name";

/// A per-row query (XMark XQ2): one pattern evaluation per open_auction
/// tuple, which the tuple-level driver morselizes at threads > 1.
constexpr const char* kPerRowQuery =
    "for $b in $input/site/open_auctions/open_auction "
    "return $b/bidder[1]/increase";

/// A cross product whose output grows quadratically: ~N^2 materialized
/// items blow through a 1 MiB accounted-byte budget early in the loop.
constexpr const char* kCrossProductQuery =
    "for $a in $input//item, $b in $input//item return $b";

class GovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::XmarkParams p;
    p.factor = 0.2;
    doc_ = engine_.AddDocument("x",
                               workload::GenerateXmark(p, engine_.interner()));
    globals_ = {{"input", {xdm::Item(doc_->root())}}};
  }

  static EvalOptions Opts(PatternAlgo algo, int threads) {
    EvalOptions opts;
    opts.algo = algo;
    opts.threads = threads;
    opts.parallel_min_fanout = 4;  // morselize even small fan-outs
    return opts;
  }

  engine::Engine engine_;
  const xml::Document* doc_;
  engine::Engine::GlobalMap globals_;
};

TEST_F(GovernorTest, DeadlineExceededAtOneAndEightThreads) {
  auto cq = engine_.Compile(kHeavyQuery);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  for (int threads : {1, 8}) {
    EvalOptions opts = Opts(PatternAlgo::kNLJoin, threads);
    opts.deadline = steady_clock::now() + milliseconds(10);
    int64_t before = ParallelEvaluationCountForTesting();
    auto res = engine_.Execute(*cq, globals_, opts);
    ASSERT_FALSE(res.ok()) << "threads=" << threads;
    EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads << ": " << res.status().ToString();
    if (threads > 1) {
      EXPECT_GT(ParallelEvaluationCountForTesting(), before)
          << "threads=" << threads << " never reached the parallel driver";
    }
  }
}

TEST_F(GovernorTest, ExpiredDeadlineTripsBeforeAnyWork) {
  auto cq = engine_.Compile("$input//person[emailaddress]/name");
  ASSERT_TRUE(cq.ok());
  EvalOptions opts = Opts(PatternAlgo::kTwig, 1);
  opts.deadline = steady_clock::now() - milliseconds(1);
  ScopedExecStats scope;
  auto res = engine_.Execute(*cq, globals_, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded);
  // The verdict surfaced at the first checks, not after deep evaluation.
  EXPECT_GT(scope.stats().governor_checks, 0);
  EXPECT_LT(scope.stats().governor_checks, 100);
}

TEST_F(GovernorTest, PreCancelledTokenTripsWithinBoundedChecks) {
  auto cq = engine_.Compile(kHeavyQuery);
  ASSERT_TRUE(cq.ok());
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  EvalOptions opts = Opts(PatternAlgo::kNLJoin, 1);
  opts.cancel_token = token;
  ScopedExecStats scope;
  auto res = engine_.Execute(*cq, globals_, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
  EXPECT_GT(scope.stats().governor_checks, 0);
  EXPECT_LT(scope.stats().governor_checks, 100);
}

// The cancellation race: a separate thread cancels mid-query, for every
// pattern algorithm at 1, 2, and 8 threads. The query must return
// kCancelled (the heavy query cannot finish first), the worker pool must
// drain cleanly, and the engine must run a normal query afterward. At
// threads > 1 the canceller first waits (up to 5s) for the query to
// reach the morsel driver, so the cancel lands among running morsels
// even where the first, sequential pattern is slow (Stream scans the
// whole document; sanitizer builds stretch it past 10ms).
TEST_F(GovernorTest, CrossThreadCancelMidQuery) {
  auto cq = engine_.Compile(kHeavyQuery);
  ASSERT_TRUE(cq.ok());
  auto sanity = engine_.Compile("fn:count($input//person[emailaddress])");
  ASSERT_TRUE(sanity.ok());
  for (PatternAlgo algo : kAllAlgos) {
    for (int threads : {1, 2, 8}) {
      auto token = std::make_shared<CancelToken>();
      EvalOptions opts = Opts(algo, threads);
      opts.cancel_token = token;
      const int64_t before = ParallelEvaluationCountForTesting();
      std::thread canceller([token, threads, before] {
        const steady_clock::time_point give_up =
            steady_clock::now() + std::chrono::seconds(5);
        while (threads > 1 && ParallelEvaluationCountForTesting() == before &&
               steady_clock::now() < give_up) {
          std::this_thread::sleep_for(milliseconds(1));
        }
        std::this_thread::sleep_for(milliseconds(10));
        token->Cancel();
      });
      auto res = engine_.Execute(*cq, globals_, opts);
      canceller.join();
      if (threads > 1) {
        EXPECT_GT(ParallelEvaluationCountForTesting(), before)
            << PatternAlgoName(algo) << " t" << threads
            << " never reached the parallel driver";
      }
      ASSERT_FALSE(res.ok())
          << PatternAlgoName(algo) << " t" << threads
          << ": heavy query finished before the cancel landed";
      EXPECT_EQ(res.status().code(), StatusCode::kCancelled)
          << PatternAlgoName(algo) << " t" << threads << ": "
          << res.status().ToString();
      // Reusable afterward: same engine, fresh options, normal query.
      auto after = engine_.Execute(*sanity, globals_, Opts(algo, threads));
      ASSERT_TRUE(after.ok())
          << PatternAlgoName(algo) << " t" << threads << ": "
          << after.status().ToString();
    }
  }
}

TEST_F(GovernorTest, MemoryBudgetTripsOnCrossProduct) {
  auto cq = engine_.Compile(kCrossProductQuery);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EvalOptions opts = Opts(PatternAlgo::kNLJoin, 1);
  opts.memory_budget_bytes = 1 << 20;  // 1 MiB
  ScopedExecStats scope;
  auto res = engine_.Execute(*cq, globals_, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().ToString();
  // The high-water mark was recorded and is near the budget (the trip
  // happens at the first charge crossing it).
  EXPECT_GT(scope.stats().peak_memory_bytes, 0);
}

TEST_F(GovernorTest, WithinBudgetQuerySucceedsAndRecordsStats) {
  auto cq = engine_.Compile("$input//person[emailaddress]/name");
  ASSERT_TRUE(cq.ok());
  auto ref = engine_.Execute(*cq, globals_, Opts(PatternAlgo::kTwig, 1));
  ASSERT_TRUE(ref.ok());
  EvalOptions opts = Opts(PatternAlgo::kTwig, 1);
  opts.deadline = steady_clock::now() + std::chrono::hours(1);
  opts.memory_budget_bytes = 1LL << 30;
  ScopedExecStats scope;
  auto res = engine_.Execute(*cq, globals_, opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  // Governed and ungoverned runs agree bit for bit.
  ASSERT_EQ(res->size(), ref->size());
  for (size_t i = 0; i < res->size(); ++i) {
    EXPECT_TRUE((*res)[i] == (*ref)[i]) << "item " << i;
  }
  EXPECT_GT(scope.stats().governor_checks, 0);
  EXPECT_GT(scope.stats().peak_memory_bytes, 0);
}

TEST_F(GovernorTest, CancelledParallelRunLeavesPoolReusable) {
  auto cq = engine_.Compile(kHeavyQuery);
  ASSERT_TRUE(cq.ok());
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  EvalOptions opts = Opts(PatternAlgo::kStaircase, 4);
  opts.cancel_token = token;
  auto res = engine_.Execute(*cq, globals_, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
  // A parallel query right after must morselize and succeed.
  auto cq2 = engine_.Compile(kPerRowQuery);
  ASSERT_TRUE(cq2.ok());
  int64_t before = ParallelEvaluationCountForTesting();
  auto after = engine_.Execute(*cq2, globals_, Opts(PatternAlgo::kStaircase, 4));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(ParallelEvaluationCountForTesting(), before)
      << "the follow-up query never reached the parallel driver";
}

TEST_F(GovernorTest, CompileTimeDeadline) {
  engine::CompileOptions copts;
  copts.deadline = steady_clock::now() - milliseconds(1);
  auto cq = engine_.Compile(kHeavyQuery, copts);
  ASSERT_FALSE(cq.ok());
  EXPECT_EQ(cq.status().code(), StatusCode::kDeadlineExceeded)
      << cq.status().ToString();
}

// ---- Recursion-depth bounds (satellite) ------------------------------------

TEST(DepthBoundsTest, XmlParserRejectsPathologicalNesting) {
  std::string open, close;
  for (int i = 0; i < 1100; ++i) {
    open += "<a>";
    close += "</a>";
  }
  StringInterner interner;
  auto doc = xml::Parse(open + close, &interner);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(doc.status().ToString().find("depth"), std::string::npos)
      << doc.status().ToString();
}

TEST(DepthBoundsTest, XmlParserAcceptsReasonableNesting) {
  std::string open, close;
  for (int i = 0; i < 500; ++i) {
    open += "<a>";
    close += "</a>";
  }
  StringInterner interner;
  auto doc = xml::Parse(open + close, &interner);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
}

TEST(DepthBoundsTest, NormalizerRejectsDeepExpressionNesting) {
  // A 1101-term additive chain: the surface parser builds it iteratively
  // (left-deep AST, O(1) parser stack), so the normalizer's recursion is
  // the first place the 1000-level cap can and must fire.
  std::string query = "1";
  for (int i = 0; i < 1100; ++i) query += " + 1";
  engine::Engine engine;
  auto cq = engine.Compile(query);
  ASSERT_FALSE(cq.ok());
  EXPECT_EQ(cq.status().code(), StatusCode::kResourceExhausted)
      << cq.status().ToString();
  EXPECT_NE(cq.status().ToString().find("depth"), std::string::npos);
}

TEST(DepthBoundsTest, RewriterRejectsDeepCoreTrees) {
  // Build a 2600-deep Core let-chain iteratively (no recursion in the
  // test either) and hand it straight to the rewriter.
  core::VarTable vars;
  core::VarId v = vars.Fresh("x");
  core::CoreExprPtr e = core::MakeVar(v);
  for (int i = 0; i < 2600; ++i) {
    e = core::MakeLet(v, core::MakeLiteral(xdm::Item(int64_t{1})),
                      std::move(e));
  }
  core::RewriteOptions ropts;
  ropts.verify = false;  // the verifier recurses; the bound must fire first
  auto res = core::RewriteToTPNF(std::move(e), &vars, ropts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().ToString();
}

}  // namespace
}  // namespace xqtp::exec
