// Tests for the multi-variable ("generalized") tree-pattern extension —
// the paper's primary future-work item. Rule (d') merges cascades into a
// single multi-output pattern whose Section 4.1 lexical-order semantics
// reproduce the cascade exactly, including the cases where single-output
// merging is forbidden (query Q5).
#include <gtest/gtest.h>

#include "algebra/printer.h"
#include "engine/engine.h"
#include "workload/member_gen.h"

namespace xqtp {
namespace {

class MultiOutputTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = engine_.LoadDocument(
        "d",
        "<doc><person><emailaddress/>"
        "<person><emailaddress/><name>inner</name></person>"
        "<name>outer</name></person>"
        "<person><name>plain</name></person></doc>");
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    doc_ = doc.value();
    opts_.multi_output_patterns = true;
  }

  std::vector<std::string> Eval(const std::string& q,
                                const engine::CompileOptions& o) {
    auto cq = engine_.Compile(q, o);
    EXPECT_TRUE(cq.ok()) << q << ": " << cq.status().ToString();
    engine::Engine::GlobalMap globals{{"d", {xdm::Item(doc_->root())}}};
    auto res = engine_.Execute(*cq, globals,
        {.algo = exec::PatternAlgo::kNLJoin});
    EXPECT_TRUE(res.ok()) << q << ": " << res.status().ToString();
    std::vector<std::string> out;
    if (res.ok()) {
      for (const xdm::Item& it : *res) out.push_back(it.StringValue());
    }
    return out;
  }

  engine::Engine engine_;
  const xml::Document* doc_;
  engine::CompileOptions opts_;
};

TEST_F(MultiOutputTest, Q5MergesIntoOneGeneralizedPattern) {
  const std::string q5 =
      "for $x in $d//person[emailaddress] return $x/name";
  auto cq = engine_.Compile(q5, opts_);
  ASSERT_TRUE(cq.ok());
  EXPECT_EQ(cq->Stats().tree_pattern_ops, 1);
  std::string p = algebra::ToString(cq->optimized(), cq->vars(),
                                    *engine_.interner());
  // The intermediate person binding stays annotated.
  EXPECT_NE(p.find("descendant::person{dot}[child::emailaddress]/"
                   "child::name{out}"),
            std::string::npos)
      << p;
}

TEST_F(MultiOutputTest, Q5OrderSemanticsPreserved) {
  const std::string q5 =
      "for $x in $d//person[emailaddress] return $x/name";
  // Person-major order (outer person first), NOT document order of the
  // name nodes.
  std::vector<std::string> merged = Eval(q5, opts_);
  std::vector<std::string> cascade = Eval(q5, engine::CompileOptions{});
  EXPECT_EQ(merged, cascade);
  EXPECT_EQ(merged, (std::vector<std::string>{"outer", "inner"}));
  // Q1a still gives document order under the extension.
  std::vector<std::string> q1a = Eval("$d//person[emailaddress]/name", opts_);
  EXPECT_EQ(q1a, (std::vector<std::string>{"inner", "outer"}));
}

TEST_F(MultiOutputTest, EveryAlgorithmAgreesViaFallback) {
  const std::string q5 =
      "for $x in $d//person[emailaddress] return $x/name";
  auto cq = engine_.Compile(q5, opts_);
  ASSERT_TRUE(cq.ok());
  engine::Engine::GlobalMap globals{{"d", {xdm::Item(doc_->root())}}};
  auto ref = engine_.Execute(*cq, globals,
      {.algo = exec::PatternAlgo::kNLJoin});
  ASSERT_TRUE(ref.ok());
  for (auto algo : {exec::PatternAlgo::kStaircase, exec::PatternAlgo::kTwig,
                    exec::PatternAlgo::kStream, exec::PatternAlgo::kTwigStack,
                    exec::PatternAlgo::kShredded}) {
    auto res = engine_.Execute(*cq, globals, {.algo = algo});
    ASSERT_TRUE(res.ok()) << exec::PatternAlgoName(algo);
    ASSERT_EQ(res->size(), ref->size()) << exec::PatternAlgoName(algo);
    for (size_t i = 0; i < res->size(); ++i) {
      EXPECT_TRUE((*res)[i] == (*ref)[i]) << exec::PatternAlgoName(algo);
    }
  }
}

TEST_F(MultiOutputTest, ThreeStageCascadesMergeToo) {
  const std::string q =
      "for $x in $d//person[emailaddress] return "
      "for $y in $x/person return $y/name";
  auto cq = engine_.Compile(q, opts_);
  ASSERT_TRUE(cq.ok());
  EXPECT_EQ(cq->Stats().tree_pattern_ops, 1);
  EXPECT_EQ(Eval(q, opts_), Eval(q, engine::CompileOptions{}));
  EXPECT_EQ(Eval(q, opts_), (std::vector<std::string>{"inner"}));
}

TEST_F(MultiOutputTest, RandomizedEquivalenceOnMember) {
  engine::Engine e2;
  workload::MemberParams mp;
  mp.node_count = 4000;
  mp.max_depth = 6;
  mp.num_tags = 6;
  const xml::Document* d =
      e2.AddDocument("m", workload::GenerateMember(mp, e2.interner()));
  engine::CompileOptions ext;
  ext.multi_output_patterns = true;
  const char* queries[] = {
      "for $x in $input//t01 return $x/t02",
      "for $x in $input//t01[t02] return $x//t03",
      "for $x in $input//t01 return for $y in $x//t02 return $y/t03",
      "for $x in $input//t04 return $x/t05/t06",
  };
  for (const char* q : queries) {
    auto cq_ref = e2.Compile(q);
    auto cq_ext = e2.Compile(q, ext);
    ASSERT_TRUE(cq_ref.ok() && cq_ext.ok()) << q;
    engine::Engine::GlobalMap globals{{"input", {xdm::Item(d->root())}}};
    auto ref = e2.Execute(*cq_ref, globals,
        {.algo = exec::PatternAlgo::kStaircase});
    auto got = e2.Execute(*cq_ext, globals,
        {.algo = exec::PatternAlgo::kNLJoin});
    ASSERT_TRUE(ref.ok() && got.ok()) << q;
    ASSERT_EQ(ref->size(), got->size()) << q;
    for (size_t i = 0; i < ref->size(); ++i) {
      EXPECT_TRUE((*ref)[i] == (*got)[i]) << q << " item " << i;
    }
  }
}

TEST_F(MultiOutputTest, DefaultModeUnchanged) {
  auto cq = engine_.Compile(
      "for $x in $d//person[emailaddress] return $x/name");
  ASSERT_TRUE(cq.ok());
  EXPECT_EQ(cq->Stats().tree_pattern_ops, 2);  // the paper's Q5 treatment
}

}  // namespace
}  // namespace xqtp
