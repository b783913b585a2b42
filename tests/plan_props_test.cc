// Plan-level property inference (analysis/plan_props.h) and its three
// consumers: the property-justified optimizer rules, the evaluator's
// runtime claim checks, and the PlanLint diagnostics. Mirrors
// plan_verifier_test.cc: every check must fire on a deliberately seeded
// bug and stay silent on the legal variant it was derived from.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/compile.h"
#include "algebra/ops.h"
#include "algebra/optimize.h"
#include "analysis/plan_lint.h"
#include "analysis/plan_props.h"
#include "engine/engine.h"
#include "exec/evaluator.h"
#include "pattern/tree_pattern.h"
#include "xml/parser.h"

namespace xqtp {
namespace {

using algebra::MakeOp;
using algebra::Op;
using algebra::OpKind;
using algebra::OpPtr;
using analysis::CardRange;
using analysis::ItemProps;
using analysis::kCardTop;
using pattern::TreePattern;
using xdm::Item;
using xdm::Sequence;

// ---- the cardinality lattice ----------------------------------------------

TEST(CardRangeTest, SaturatingArithmetic) {
  CardRange a{2, 3};
  CardRange b{1, 4};
  EXPECT_EQ(a.Plus(b), (CardRange{3, 7}));
  EXPECT_EQ(a.Times(b), (CardRange{2, 12}));
  EXPECT_EQ(a.Union(b), (CardRange{1, 4}));
  EXPECT_EQ(a.Plus(CardRange::Top()).hi, kCardTop);
  EXPECT_EQ(a.Times(CardRange::Top()).hi, kCardTop);
  // Multiplying by a proven-empty range collapses to empty.
  EXPECT_EQ(CardRange::Top().Times(CardRange::Exactly(0)),
            CardRange::Exactly(0));
  EXPECT_TRUE(CardRange::Top().IsTop());
  EXPECT_TRUE(CardRange::Exactly(0).Empty());
  EXPECT_TRUE((CardRange{1, 5}).Contains(3));
  EXPECT_FALSE((CardRange{1, 5}).Contains(0));
}

TEST(CardRangeTest, ProvenDdoRedundant) {
  ItemProps nodes = ItemProps::SingletonNode();
  EXPECT_TRUE(analysis::ProvenDdoRedundant(nodes));
  // Ordered+dup-free but possibly mixed: Ddo may still type-error, so it
  // is not redundant unless at most one item survives.
  ItemProps mixed = ItemProps::SingletonNode();
  mixed.nodes_only = false;
  mixed.card = CardRange{0, 5};
  EXPECT_FALSE(analysis::ProvenDdoRedundant(mixed));
  mixed.card = CardRange{0, 1};
  EXPECT_TRUE(analysis::ProvenDdoRedundant(mixed));
  ItemProps unordered = ItemProps::SingletonNode();
  unordered.ordered = false;
  unordered.card = CardRange{0, 5};
  EXPECT_FALSE(analysis::ProvenDdoRedundant(unordered));
}

// ---- plan builders (the optimizer's canonical shapes) ----------------------

class PlanPropsTest : public ::testing::Test {
 protected:
  PlanPropsTest() {
    d_ = vars_.Global("d");
    dot_ = interner_.Intern("dot");
    out_ = interner_.Intern("out");
    out2_ = interner_.Intern("out2");
    a_ = interner_.Intern("a");
    b_ = interner_.Intern("b");
  }

  OpPtr Global() {
    OpPtr op = MakeOp(OpKind::kGlobalVar);
    op->var = d_;
    return op;
  }

  OpPtr FromItem(Symbol field, OpPtr input) {
    OpPtr op = MakeOp(OpKind::kMapFromItem);
    op->field = field;
    op->inputs.push_back(std::move(input));
    op->dep = MakeOp(OpKind::kInputItem);
    return op;
  }

  OpPtr ToItem(OpPtr input, OpPtr dep) {
    OpPtr op = MakeOp(OpKind::kMapToItem);
    op->inputs.push_back(std::move(input));
    op->dep = std::move(dep);
    return op;
  }

  OpPtr FieldAcc(Symbol field) {
    OpPtr op = MakeOp(OpKind::kFieldAccess);
    op->field = field;
    return op;
  }

  OpPtr Ttp(TreePattern tp, OpPtr input) {
    OpPtr op = MakeOp(OpKind::kTupleTreePattern);
    op->tp = std::move(tp);
    op->inputs.push_back(std::move(input));
    return op;
  }

  OpPtr Ddo(OpPtr input) {
    OpPtr op = MakeOp(OpKind::kDdo);
    op->inputs.push_back(std::move(input));
    return op;
  }

  /// MapToItem{IN#out}(TTP[IN#dot/child::a{out}](MapFromItem{[dot:IN]}($d)))
  OpPtr LegalPlan() {
    TreePattern tp = pattern::MakeSingleStep(dot_, Axis::kChild,
                                             NodeTest::Name(a_), out_);
    return ToItem(Ttp(std::move(tp), FromItem(dot_, Global())),
                  FieldAcc(out_));
  }

  core::VarTable vars_;
  StringInterner interner_;
  core::VarId d_;
  Symbol dot_, out_, out2_, a_, b_;
};

TEST_F(PlanPropsTest, GlobalIsAtMostOneNode) {
  OpPtr plan = Global();
  analysis::PlanProps props = analysis::InferPlanProps(*plan);
  const ItemProps* p = props.Item(plan.get());
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->ordered);
  EXPECT_TRUE(p->dup_free);
  EXPECT_TRUE(p->nodes_only);
  // The public Execute accepts empty bindings, so the lower bound is 0.
  EXPECT_EQ(p->card, (CardRange{0, 1}));
}

TEST_F(PlanPropsTest, SingleOutputPatternStreamIsOrdered) {
  OpPtr plan = LegalPlan();
  analysis::PlanProps props = analysis::InferPlanProps(*plan);
  const analysis::TupleProps* t = props.Tuple(plan->inputs[0].get());
  ASSERT_NE(t, nullptr);
  const analysis::FieldProps* f = t->Field(out_);
  ASSERT_NE(f, nullptr);
  // One node per row, and — because the context is at most one node — the
  // concatenation across rows is in document order without duplicates.
  EXPECT_EQ(f->value.card, CardRange::Exactly(1));
  EXPECT_TRUE(f->seq_ordered);
  EXPECT_TRUE(f->seq_dup_free);
  // So the whole extraction is proven ordered and duplicate-free.
  const ItemProps* top = props.Item(plan.get());
  ASSERT_NE(top, nullptr);
  EXPECT_TRUE(analysis::ProvenDdoRedundant(*top));
}

TEST_F(PlanPropsTest, ChildChainYieldsFunctionalDependency) {
  // IN#dot/child::a{out}/child::b{out2}: out is the parent of out2 at a
  // fixed child distance, so out is functionally dependent on out2.
  TreePattern tp = pattern::MakeSingleStep(dot_, Axis::kChild,
                                           NodeTest::Name(a_), out_);
  auto second = std::make_unique<pattern::PatternNode>();
  second->axis = Axis::kChild;
  second->test = NodeTest::Name(b_);
  second->output = out2_;
  tp.root->next = std::move(second);
  OpPtr plan = Ttp(std::move(tp), FromItem(dot_, Global()));
  analysis::PlanProps props = analysis::InferPlanProps(*plan);
  const analysis::TupleProps* t = props.Tuple(plan.get());
  ASSERT_NE(t, nullptr);
  bool found = false;
  for (const auto& fd : t->fds) {
    if (fd.first == out_ && fd.second == out2_) found = true;
  }
  EXPECT_TRUE(found) << "expected FD (out <- out2)";
}

TEST_F(PlanPropsTest, DescendantGapBlocksFunctionalDependency) {
  // IN#dot/descendant::a{out}/descendant::b{out2}: a result node for out2
  // does not determine which `a` ancestor produced it.
  TreePattern tp = pattern::MakeSingleStep(dot_, Axis::kDescendant,
                                           NodeTest::Name(a_), out_);
  auto second = std::make_unique<pattern::PatternNode>();
  second->axis = Axis::kDescendant;
  second->test = NodeTest::Name(b_);
  second->output = out2_;
  tp.root->next = std::move(second);
  OpPtr plan = Ttp(std::move(tp), FromItem(dot_, Global()));
  analysis::PlanProps props = analysis::InferPlanProps(*plan);
  const analysis::TupleProps* t = props.Tuple(plan.get());
  ASSERT_NE(t, nullptr);
  for (const auto& fd : t->fds) {
    EXPECT_FALSE(fd.first == out_ && fd.second == out2_)
        << "descendant gap must not produce an FD";
  }
}

TEST_F(PlanPropsTest, StampedClaimsSurviveOnlyWhenCheckable) {
  OpPtr plan = LegalPlan();
  analysis::AnnotatePlanProps(plan.get());
  // The extraction's output is all nodes: order claims are stamped.
  EXPECT_TRUE(plan->props.ordered);
  EXPECT_TRUE(plan->props.dup_free);
  analysis::ClearPlanProps(plan.get());
  EXPECT_FALSE(plan->props.Any());
}

// ---- runtime claim checks: every seeded lie must be caught -----------------

class RuntimeClaimsTest : public PlanPropsTest {
 protected:
  void SetUp() override {
    auto doc = xml::Parse("<r><a/><a/><b/></r>", &interner_);
    ASSERT_TRUE(doc.ok());
    doc_ = std::move(doc).value();
    const xml::Node* r = doc_->root()->first_child;
    first_a_ = r->first_child;
    second_a_ = first_a_->next_sibling;
    b_node_ = second_a_->next_sibling;
  }

  /// Evaluates $d (with the given binding) under a stamped claim.
  Status RunWithClaim(const algebra::PropsClaims& claim,
                      const Sequence& binding) {
    OpPtr plan = Global();
    plan->props = claim;
    exec::Bindings bindings;
    bindings[d_] = binding;
    exec::EvalOptions opts;
    opts.check_inferred_props = true;
    return exec::Evaluate(*plan, vars_, bindings, opts).status();
  }

  static algebra::PropsClaims Claim(bool ordered, bool dup_free, int64_t lo,
                                    int64_t hi) {
    algebra::PropsClaims c;
    c.ordered = ordered;
    c.dup_free = dup_free;
    c.card_lo = lo;
    c.card_hi = hi;
    return c;
  }

  std::unique_ptr<xml::Document> doc_;
  const xml::Node* first_a_ = nullptr;
  const xml::Node* second_a_ = nullptr;
  const xml::Node* b_node_ = nullptr;
};

void ExpectClaimViolation(const Status& st, const char* tag) {
  ASSERT_FALSE(st.ok()) << "expected a [" << tag << "] violation";
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("[plan props]"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find(std::string("[") + tag + "]"),
            std::string::npos)
      << st.message();
}

TEST_F(RuntimeClaimsTest, TrueClaimsPass) {
  EXPECT_TRUE(RunWithClaim(Claim(true, true, 0, 3),
                           {Item(first_a_), Item(second_a_), Item(b_node_)})
                  .ok());
  EXPECT_TRUE(RunWithClaim(Claim(true, true, 0, -1), {}).ok());
}

TEST_F(RuntimeClaimsTest, SeededOutOfOrderIsCaught) {
  EXPECT_TRUE(
      RunWithClaim(Claim(false, false, 0, -1),
                   {Item(b_node_), Item(first_a_)})
          .ok());  // without the claim, nothing to violate
  ExpectClaimViolation(RunWithClaim(Claim(true, false, 0, -1),
                                    {Item(b_node_), Item(first_a_)}),
                       "claim-ordered");
}

TEST_F(RuntimeClaimsTest, SeededAdjacentDuplicateIsCaught) {
  ExpectClaimViolation(RunWithClaim(Claim(true, true, 0, -1),
                                    {Item(first_a_), Item(first_a_)}),
                       "claim-dupfree");
}

TEST_F(RuntimeClaimsTest, SeededNonAdjacentDuplicateIsCaught) {
  // dup_free without ordered takes the set-based path.
  ExpectClaimViolation(
      RunWithClaim(Claim(false, true, 0, -1),
                   {Item(first_a_), Item(b_node_), Item(first_a_)}),
      "claim-dupfree");
}

TEST_F(RuntimeClaimsTest, SeededCardUpperBoundIsCaught) {
  ExpectClaimViolation(RunWithClaim(Claim(false, false, 0, 1),
                                    {Item(first_a_), Item(second_a_)}),
                       "claim-card");
}

TEST_F(RuntimeClaimsTest, SeededCardLowerBoundIsCaught) {
  ExpectClaimViolation(RunWithClaim(Claim(false, false, 1, -1), {}),
                       "claim-card");
}

TEST_F(RuntimeClaimsTest, SeededAtomicUnderOrderClaimIsCaught) {
  ExpectClaimViolation(
      RunWithClaim(Claim(true, false, 0, -1),
                   {Item(int64_t{1}), Item(int64_t{2})}),
      "claim-nodes");
}

TEST_F(RuntimeClaimsTest, ChecksCanBeDisabled) {
  algebra::PropsClaims lie = Claim(false, false, 5, 5);
  OpPtr plan = Global();
  plan->props = lie;
  exec::Bindings bindings;
  bindings[d_] = Sequence{Item(first_a_)};
  exec::EvalOptions opts;
  opts.check_inferred_props = false;
  EXPECT_TRUE(exec::Evaluate(*plan, vars_, bindings, opts).ok());
}

// ---- PlanLint: every seeded pathology must be reported ---------------------

class PlanLintTest : public PlanPropsTest {
 protected:
  std::vector<std::string> Rules(const Op& plan) {
    analysis::PlanLintOptions opts;
    opts.interner = &interner_;
    std::vector<std::string> rules;
    for (const analysis::LintFinding& f : analysis::LintPlan(plan, opts)) {
      rules.push_back(f.rule);
    }
    return rules;
  }

  static bool Has(const std::vector<std::string>& rules, const char* rule) {
    for (const std::string& r : rules) {
      if (r == rule) return true;
    }
    return false;
  }
};

TEST_F(PlanLintTest, CleanPlanHasNoDefectFindings) {
  EXPECT_TRUE(Rules(*LegalPlan()).empty());
}

TEST_F(PlanLintTest, SeededRedundantDdoIsReported) {
  // fs:ddo over a proven at-most-one-node sequence.
  OpPtr plan = Ddo(Global());
  EXPECT_TRUE(Has(Rules(*plan), "redundant-ddo"));
}

TEST_F(PlanLintTest, SeededDeadMapFromItemFieldIsReported) {
  // The extraction ignores the tuples entirely: field dot is dead.
  OpPtr constant = MakeOp(OpKind::kConst);
  constant->literal = Item(int64_t{7});
  OpPtr plan = ToItem(FromItem(dot_, Global()), std::move(constant));
  EXPECT_TRUE(Has(Rules(*plan), "dead-field"));
}

TEST_F(PlanLintTest, SeededDeadPatternAnnotationIsReported) {
  // The pattern binds `out` but the extraction reads a constant.
  TreePattern tp = pattern::MakeSingleStep(dot_, Axis::kChild,
                                           NodeTest::Name(a_), out_);
  OpPtr constant = MakeOp(OpKind::kConst);
  constant->literal = Item(int64_t{7});
  OpPtr plan = ToItem(Ttp(std::move(tp), FromItem(dot_, Global())),
                      std::move(constant));
  EXPECT_TRUE(Has(Rules(*plan), "dead-field"));
}

TEST_F(PlanLintTest, SeededConstSelectIsReported) {
  OpPtr pred = MakeOp(OpKind::kConst);
  pred->literal = Item(true);
  OpPtr select = MakeOp(OpKind::kSelect);
  select->dep = std::move(pred);
  select->inputs.push_back(FromItem(dot_, Global()));
  OpPtr plan = ToItem(std::move(select), FieldAcc(dot_));
  EXPECT_TRUE(Has(Rules(*plan), "const-select"));
}

TEST_F(PlanLintTest, SeededProvenEmptyOutputIsReported) {
  // IN#out is never produced: MapFromItem's tuples carry only dot, and
  // the field list is complete, so the access is proven empty.
  OpPtr plan = ToItem(FromItem(dot_, Global()), FieldAcc(out_));
  EXPECT_TRUE(Has(Rules(*plan), "card-zero"));
}

// ---- property-justified optimizer rules ------------------------------------

class PropertyRulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = engine_.LoadDocument(
        "d",
        "<site><regions><namerica><item id=\"i1\"><location>US</location>"
        "</item><item id=\"i2\"><location>DE</location></item></namerica>"
        "</regions><people><person><name>n1</name></person></people>"
        "</site>");
    ASSERT_TRUE(doc.ok());
    doc_ = doc.value();
  }

  engine::Engine engine_;
  const xml::Document* doc_ = nullptr;
};

TEST_F(PropertyRulesTest, ProvenRedundantDdoIsEliminated) {
  // Without the TPNF' Core rewrites, compiled plans keep Ddo operators
  // the structural rule (f) cannot remove; the property pass proves them
  // redundant. Both plans must agree bit-for-bit, sequentially and
  // morsel-parallel (the compile-time translation-validation oracle has
  // already cross-checked every firing in debug builds).
  for (const char* query :
       {"$input//location", "$input//item/location", "$input//person[name]"}) {
    engine::CompileOptions base;
    base.rewrite = false;
    base.infer_properties = false;
    auto plain = engine_.Compile(query, base);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();

    engine::CompileOptions inferred = base;
    inferred.infer_properties = true;
    auto opt = engine_.Compile(query, inferred);
    ASSERT_TRUE(opt.ok()) << opt.status().ToString();

    EXPECT_LT(opt->Stats().ddo_ops, plain->Stats().ddo_ops) << query;

    engine::Engine::GlobalMap globals{
        {"input", {xdm::Item(doc_->root())}}};
    for (int threads : {1, 2}) {
      exec::EvalOptions eopts;
      eopts.threads = threads;
      eopts.parallel_min_fanout = 1;
      auto want = engine_.Execute(*plain, globals, eopts);
      auto got = engine_.Execute(*opt, globals, eopts);
      ASSERT_TRUE(want.ok()) << query << ": " << want.status().ToString();
      ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
      EXPECT_EQ(*want, *got) << query << " at threads=" << threads;
    }
  }
}

TEST_F(PropertyRulesTest, InferencePreservesDefaultPipeline) {
  // With the full rewrite pipeline, rule (f) already removes the Ddo; the
  // property pass must change nothing and results must stay identical.
  engine::CompileOptions off;
  off.infer_properties = false;
  auto plain = engine_.Compile("$input//item[location]", off);
  auto opt = engine_.Compile("$input//item[location]");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(plain->Stats().ddo_ops, opt->Stats().ddo_ops);
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc_->root())}}};
  auto want = engine_.Execute(*plain, globals);
  auto got = engine_.Execute(*opt, globals);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);
}

TEST_F(PropertyRulesTest, DeadAnnotationIsPrunedUnderFd) {
  // IN#dot/child::regions{out}/child::namerica{out2} with only out2 read:
  // the child-like chain over a singleton context gives out <- out2, so
  // the unread intermediate annotation is pruned (rule p2).
  core::VarTable vars;
  core::VarId d = vars.Global("d");
  StringInterner interner;
  Symbol dot = interner.Intern("dot");
  Symbol out = interner.Intern("out");
  Symbol out2 = interner.Intern("out2");
  TreePattern tp = pattern::MakeSingleStep(
      dot, Axis::kChild, NodeTest::Name(interner.Intern("regions")), out);
  auto second = std::make_unique<pattern::PatternNode>();
  second->axis = Axis::kChild;
  second->test = NodeTest::Name(interner.Intern("namerica"));
  second->output = out2;
  tp.root->next = std::move(second);

  OpPtr global = MakeOp(OpKind::kGlobalVar);
  global->var = d;
  OpPtr from = MakeOp(OpKind::kMapFromItem);
  from->field = dot;
  from->dep = MakeOp(OpKind::kInputItem);
  from->inputs.push_back(std::move(global));
  OpPtr ttp = MakeOp(OpKind::kTupleTreePattern);
  ttp->tp = std::move(tp);
  ttp->inputs.push_back(std::move(from));
  OpPtr plan = MakeOp(OpKind::kMapToItem);
  OpPtr acc = MakeOp(OpKind::kFieldAccess);
  acc->field = out2;
  plan->dep = std::move(acc);
  plan->inputs.push_back(std::move(ttp));

  algebra::OptimizeOptions oopts;
  oopts.multi_output_patterns = true;
  oopts.vars = &vars;
  ASSERT_TRUE(algebra::Optimize(&plan, &interner, oopts).ok());
  // Find the surviving pattern: exactly one output should remain.
  const Op* ttp_op = plan.get();
  while (ttp_op != nullptr && ttp_op->kind != OpKind::kTupleTreePattern) {
    ttp_op = ttp_op->inputs.empty() ? nullptr : ttp_op->inputs[0].get();
  }
  ASSERT_NE(ttp_op, nullptr);
  EXPECT_EQ(ttp_op->tp.OutputFields().size(), 1u);
}

}  // namespace
}  // namespace xqtp
