#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <utility>
#include <vector>

#include "common/exec_stats.h"
#include "engine/engine.h"
#include "exec/cost_model.h"
#include "workload/member_gen.h"
#include "workload/xmark_gen.h"

namespace xqtp::exec {
namespace {

using pattern::MakeSingleStep;
using pattern::TreePattern;

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::MemberParams wide;
    wide.node_count = 50000;
    wide.max_depth = 5;
    wide.num_tags = 100;
    wide.plant_twigs = 25;
    wide_ = engine_.AddDocument(
        "wide", workload::GenerateMember(wide, engine_.interner()));

    workload::MemberParams deep;
    deep.node_count = 20000;
    deep.max_depth = 15;
    deep.num_tags = 1;
    deep_ = engine_.AddDocument(
        "deep", workload::GenerateMember(deep, engine_.interner()));
  }

  Symbol Tag(const char* t) { return engine_.interner()->Intern(t); }

  engine::Engine engine_;
  const xml::Document* wide_;
  const xml::Document* deep_;
};

TEST_F(CostModelTest, StatsAreSane) {
  const DocStats& s = StatsFor(*wide_);
  EXPECT_GT(s.node_count, 50000);
  EXPECT_GT(s.avg_fanout, 2.0);
  EXPECT_EQ(s.max_depth, 5);
  // Cached: same object.
  EXPECT_EQ(&StatsFor(*wide_), &s);
}

TEST_F(CostModelTest, IndexAlgorithmsWinOnRootedDescendantPatterns) {
  TreePattern tp = MakeSingleStep(Tag("dot"), Axis::kDescendant,
                                  NodeTest::Name(Tag("t01")), Tag("out"));
  xdm::Sequence ctx{xdm::Item(wide_->root())};
  double nl = EstimateCost(tp, ctx, PatternAlgo::kNLJoin);
  double sc = EstimateCost(tp, ctx, PatternAlgo::kStaircase);
  double tj = EstimateCost(tp, ctx, PatternAlgo::kTwig);
  EXPECT_LT(sc, nl);
  EXPECT_LT(tj, nl);
  PatternAlgo choice = ChooseAlgorithm(tp, ctx);
  EXPECT_NE(choice, PatternAlgo::kNLJoin);
}

TEST_F(CostModelTest, TwigWinsOnBranchyPatterns) {
  // t01[t02[t03]][t04] with descendant edges: heavy predicate probing for
  // the staircase join.
  TreePattern tp = MakeSingleStep(Tag("dot"), Axis::kDescendant,
                                  NodeTest::Name(Tag("t01")), Tag("out"));
  TreePattern p1 = MakeSingleStep(kInvalidSymbol, Axis::kDescendant,
                                  NodeTest::Name(Tag("t02")), kInvalidSymbol);
  pattern::AppendPath(&p1, MakeSingleStep(kInvalidSymbol, Axis::kDescendant,
                                          NodeTest::Name(Tag("t03")),
                                          kInvalidSymbol));
  pattern::AttachPredicate(&tp, std::move(p1));
  pattern::AttachPredicate(
      &tp, MakeSingleStep(kInvalidSymbol, Axis::kDescendant,
                          NodeTest::Name(Tag("t04")), kInvalidSymbol));
  xdm::Sequence ctx{xdm::Item(wide_->root())};
  double sc = EstimateCost(tp, ctx, PatternAlgo::kStaircase);
  double tj = EstimateCost(tp, ctx, PatternAlgo::kTwig);
  EXPECT_LT(tj, sc);
  EXPECT_EQ(ChooseAlgorithm(tp, ctx), PatternAlgo::kTwig);
}

TEST_F(CostModelTest, NestedLoopWinsOnDeepSelectiveContexts) {
  // A single child step from one deep context node: the Section 5.3
  // situation — the index algorithms would scan the t1 stream.
  const xml::Node* deep_node = deep_->root()->first_child;
  for (int i = 0; i < 8 && deep_node->first_child != nullptr; ++i) {
    deep_node = deep_node->first_child;
  }
  TreePattern tp = MakeSingleStep(Tag("dot"), Axis::kChild,
                                  NodeTest::Name(Tag("t1")), Tag("out"));
  xdm::Sequence ctx{xdm::Item(deep_node)};
  double nl = EstimateCost(tp, ctx, PatternAlgo::kNLJoin);
  double sc = EstimateCost(tp, ctx, PatternAlgo::kStaircase);
  double tj = EstimateCost(tp, ctx, PatternAlgo::kTwig);
  EXPECT_LT(nl, sc);
  EXPECT_LT(nl, tj);
  EXPECT_EQ(ChooseAlgorithm(tp, ctx), PatternAlgo::kNLJoin);
}

TEST_F(CostModelTest, CostBasedEvaluationIsCorrect) {
  const char* queries[] = {
      "$input/desc::t01[child::t02[child::t03[child::t04]]]",
      "$input/desc::t01[desc::t02]/child::t03",
      "$input/t1[1]/t1[1]/t1[1]",
  };
  for (const char* q : queries) {
    auto cq = engine_.Compile(q);
    ASSERT_TRUE(cq.ok()) << q;
    const xml::Document* d =
        std::string(q).find("t1[1]") != std::string::npos ? deep_ : wide_;
    engine::Engine::GlobalMap globals{{"input", {xdm::Item(d->root())}}};
    auto ref = engine_.Execute(*cq, globals, {.algo = PatternAlgo::kNLJoin});
    auto cb = engine_.Execute(*cq, globals, {.algo = PatternAlgo::kCostBased});
    ASSERT_TRUE(ref.ok() && cb.ok()) << q;
    ASSERT_EQ(ref->size(), cb->size()) << q;
    for (size_t i = 0; i < ref->size(); ++i) {
      EXPECT_TRUE((*ref)[i] == (*cb)[i]) << q << " item " << i;
    }
  }
}

TEST_F(CostModelTest, EmptyContextCostsNothing) {
  TreePattern tp = MakeSingleStep(Tag("dot"), Axis::kChild,
                                  NodeTest::AnyName(), Tag("out"));
  EXPECT_EQ(EstimateCost(tp, {}, PatternAlgo::kNLJoin), 0);
  // Choice still returns a valid algorithm.
  PatternAlgo choice = ChooseAlgorithm(tp, {});
  EXPECT_TRUE(choice == PatternAlgo::kNLJoin ||
              choice == PatternAlgo::kStaircase ||
              choice == PatternAlgo::kTwig);
}

TEST(CostModelDefaults, CostBasedSequentialIsTheDefault) {
  EXPECT_EQ(EvalOptions{}.algo, PatternAlgo::kCostBased);
  EXPECT_EQ(EvalOptions{}.threads, 1);
}

/// The TupleTreePattern operators of a compiled plan, in pre-order.
void CollectPatterns(const algebra::Op& op,
                     std::vector<const algebra::Op*>* out) {
  if (op.kind == algebra::OpKind::kTupleTreePattern) out->push_back(&op);
  for (const algebra::OpPtr& in : op.inputs) {
    if (in != nullptr) CollectPatterns(*in, out);
  }
  if (op.dep != nullptr) CollectPatterns(*op.dep, out);
  if (op.dep2 != nullptr) CollectPatterns(*op.dep2, out);
}

/// The pattern operator whose root step tests `tag`.
const pattern::TreePattern* PatternRootedAt(const engine::CompiledQuery& q,
                                            Symbol tag) {
  std::vector<const algebra::Op*> ops;
  CollectPatterns(q.optimized(), &ops);
  for (const algebra::Op* op : ops) {
    if (op->tp.root != nullptr && op->tp.root->test.name == tag) {
      return &op->tp;
    }
  }
  return nullptr;
}

/// The first `tag` child of `n`, or null.
const xml::Node* FirstChild(const xml::Node* n, Symbol tag) {
  for (const xml::Node* c = n->first_child; c != nullptr;
       c = c->next_sibling) {
    if (c->kind == xml::NodeKind::kElement && c->name == tag) return c;
  }
  return nullptr;
}

// The calibrated choices on the e2e serving benchmark's documents: an
// XMark factor-1.0 document and a 157k-node MemBeR document of
// member-twig's shape (e2ebench/README.md). The constants in
// cost_model.cc were fitted there.
class CalibratedPicksTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new engine::Engine();
    workload::MemberParams m;
    m.node_count = workload::NodeCountForBytes(2200000);
    m.max_depth = 5;
    m.num_tags = 100;
    m.plant_twigs = m.node_count / 2000;
    member_ = engine_->AddDocument(
        "member", workload::GenerateMember(m, engine_->interner()));
    workload::XmarkParams x;
    x.factor = 1.0;
    xmark_ = engine_->AddDocument(
        "xmark", workload::GenerateXmark(x, engine_->interner()));
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static Symbol Tag(const char* t) { return engine_->interner()->Intern(t); }

  static engine::CompiledQuery Compile(const char* q) {
    auto cq = engine_->Compile(q);
    EXPECT_TRUE(cq.ok()) << q << ": " << cq.status().ToString();
    return std::move(cq).value();
  }

  /// The choice for the plan's single, root-context pattern.
  static PatternAlgo RootPick(const char* q, const xml::Document* doc) {
    engine::CompiledQuery cq = Compile(q);
    std::vector<const algebra::Op*> ops;
    CollectPatterns(cq.optimized(), &ops);
    EXPECT_EQ(ops.size(), 1u) << q;
    if (ops.empty()) return PatternAlgo::kCostBased;
    return ChooseAlgorithm(ops[0]->tp, {xdm::Item(doc->root())});
  }

  static engine::Engine* engine_;
  static const xml::Document* member_;
  static const xml::Document* xmark_;
};

engine::Engine* CalibratedPicksTest::engine_ = nullptr;
const xml::Document* CalibratedPicksTest::member_ = nullptr;
const xml::Document* CalibratedPicksTest::xmark_ = nullptr;

// Table 1's descendant twigs: the holistic twig join is 4-5x faster than
// the staircase join there.
TEST_F(CalibratedPicksTest, TwigJoinForBranchyDescendantTwigs) {
  EXPECT_EQ(RootPick("$input/desc::t01[desc::t02[desc::t03[desc::t04]]]",
                     member_),
            PatternAlgo::kTwig);
  EXPECT_EQ(RootPick("$input/desc::t01[desc::t02[desc::t03]/"
                     "desc::t04[desc::t03]]",
                     member_),
            PatternAlgo::kTwig);
}

// Fig. 6's descendant forms on XMark: the staircase join wins, and the
// nested loop is an order of magnitude slower.
TEST_F(CalibratedPicksTest, StaircaseForXmarkDescendantPaths) {
  for (const char* q : {"$input//person//name", "$input//item//name",
                        "$input//closed_auction//price"}) {
    PatternAlgo pick = RootPick(q, xmark_);
    EXPECT_NE(pick, PatternAlgo::kTwig) << q;
    EXPECT_NE(pick, PatternAlgo::kNLJoin) << q;
  }
}

// QE2 / QE5 evaluate their t02 step once per t01 node, ahead of the
// positional filter. Those one-node contexts are small: the twig join's
// per-call set-up never pays there (the old model sent 1,617 of 1,638
// such rows to TJ).
TEST_F(CalibratedPicksTest, NoTwigJoinForPerRowPositionalContexts) {
  for (const char* q :
       {"$input/desc::t01/child::t02[1]/child::t03[child::t04]",
        "$input/desc::t01/desc::t02[1]/desc::t03[desc::t04]"}) {
    engine::CompiledQuery cq = Compile(q);
    const pattern::TreePattern* per_t01 = PatternRootedAt(cq, Tag("t02"));
    ASSERT_NE(per_t01, nullptr) << q;
    const std::vector<const xml::Node*>& t01s =
        member_->ElementsByTag(Tag("t01"));
    ASSERT_GT(t01s.size(), 1000u);
    for (const xml::Node* t01 : t01s) {
      EXPECT_NE(ChooseAlgorithm(*per_t01, {xdm::Item(t01)}),
                PatternAlgo::kTwig)
          << q << " at t01 pre=" << t01->pre;
    }
  }
}

// One operator evaluated over N input rows consults the estimator once
// per context shape — (document, depth, size class, window class) — not
// once per row.
TEST_F(CostModelTest, EstimatorConsultedOncePerContextShape) {
  const char* q = "$input/desc::t01/child::t02[1]/child::t03[child::t04]";
  auto cq = engine_.Compile(q);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(wide_->root())}}};
  EvalOptions opts;
  opts.algo = PatternAlgo::kCostBased;
  opts.threads = 1;
  ExecStats stats;
  {
    ScopedExecStats scope;
    ASSERT_TRUE(engine_.Execute(*cq, globals, opts).ok());
    stats = scope.stats();
  }
  // The per-row operators' context shapes: every t01 node (for the
  // child::t02 step) and every first t02 child (for child::t03).
  std::set<std::pair<int, int>> t01_shapes;
  std::set<std::pair<int, int>> t02_shapes;
  const auto shape = [](const xml::Node* n) {
    const int window = 1 + n->post - n->pre + n->depth;
    return std::make_pair(
        static_cast<int>(n->depth),
        static_cast<int>(std::bit_width(static_cast<unsigned>(window))));
  };
  for (const xml::Node* t01 : wide_->ElementsByTag(Tag("t01"))) {
    t01_shapes.insert(shape(t01));
    if (const xml::Node* t02 = FirstChild(t01, Tag("t02"))) {
      t02_shapes.insert(shape(t02));
    }
  }
  EXPECT_GT(stats.pattern_evals, 400);
  EXPECT_GE(stats.cost_estimates, 2);
  EXPECT_LE(stats.cost_estimates,
            static_cast<int64_t>(1 + t01_shapes.size() + t02_shapes.size()))
      << stats.ToString();
  // A fixed algorithm never consults the model.
  opts.algo = PatternAlgo::kStaircase;
  ScopedExecStats scope;
  ASSERT_TRUE(engine_.Execute(*cq, globals, opts).ok());
  EXPECT_EQ(scope.stats().cost_estimates, 0);
}

}  // namespace
}  // namespace xqtp::exec
