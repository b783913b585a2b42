// Tests for the extended XQuery fragment: arithmetic, conditionals,
// quantified expressions, union, string/number functions, and the
// additional navigational axes. Every query is cross-checked through all
// evaluation routes.
#include <gtest/gtest.h>

#include "engine/engine.h"

namespace xqtp {
namespace {

class FragmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = engine_.LoadDocument(
        "d",
        "<inventory>"
        "<item><name>apple</name><price>3</price><qty>10</qty></item>"
        "<item><name>pear</name><price>5</price><qty>4</qty></item>"
        "<item><name>plum</name><price>2</price></item>"
        "</inventory>");
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    doc_ = doc.value();
  }

  std::vector<std::string> Eval(const std::string& q) {
    auto cq = engine_.Compile(q);
    EXPECT_TRUE(cq.ok()) << q << ": " << cq.status().ToString();
    if (!cq.ok()) return {};
    engine::Engine::GlobalMap globals{{"d", {xdm::Item(doc_->root())}}};
    std::vector<std::string> reference;
    bool first = true;
    for (auto pc : {engine::PlanChoice::kCoreInterp,
                    engine::PlanChoice::kUnoptimized,
                    engine::PlanChoice::kOptimized}) {
      for (auto algo : {exec::PatternAlgo::kNLJoin,
                        exec::PatternAlgo::kStaircase,
                        exec::PatternAlgo::kTwig,
                        exec::PatternAlgo::kStream,
                        exec::PatternAlgo::kTwigStack}) {
        auto res = engine_.Execute(*cq, globals, {.algo = algo}, pc);
        EXPECT_TRUE(res.ok()) << q << ": " << res.status().ToString();
        if (!res.ok()) continue;
        std::vector<std::string> values;
        for (const xdm::Item& it : *res) values.push_back(it.StringValue());
        if (first) {
          reference = values;
          first = false;
        } else {
          EXPECT_EQ(values, reference) << q;
        }
        if (pc == engine::PlanChoice::kCoreInterp) break;
      }
    }
    return reference;
  }

  std::string One(const std::string& q) {
    std::vector<std::string> v = Eval(q);
    EXPECT_EQ(v.size(), 1u) << q;
    return v.empty() ? "" : v[0];
  }

  engine::Engine engine_;
  const xml::Document* doc_;
};

TEST_F(FragmentTest, Arithmetic) {
  EXPECT_EQ(One("1 + 2 * 3"), "7");
  EXPECT_EQ(One("(1 + 2) * 3"), "9");
  EXPECT_EQ(One("7 mod 3"), "1");
  EXPECT_EQ(One("7 idiv 2"), "3");
  EXPECT_EQ(One("7 div 2"), "3.5");
  EXPECT_EQ(One("-3 + 5"), "2");
  EXPECT_EQ(One("1 - -1"), "2");
}

TEST_F(FragmentTest, ArithmeticOverNodeValues) {
  // price values coerce to numbers.
  EXPECT_EQ(One("fn:sum($d//price) + 0"), "10");
  EXPECT_EQ(One("fn:count($d//item) * 2"), "6");
}

TEST_F(FragmentTest, ArithmeticEmptyAndErrors) {
  EXPECT_TRUE(Eval("$d//nope + 1").empty());
  auto cq = engine_.Compile("1 div 0");
  ASSERT_TRUE(cq.ok());
  auto res = engine_.Execute(*cq, {}, {.algo = exec::PatternAlgo::kNLJoin});
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kTypeError);
}

TEST_F(FragmentTest, Conditionals) {
  EXPECT_EQ(One("if ($d//item[name = \"pear\"]) then \"yes\" else \"no\""),
            "yes");
  EXPECT_EQ(One("if ($d//item[name = \"kiwi\"]) then \"yes\" else \"no\""),
            "no");
  // Conditionals nest in FLWOR returns.
  EXPECT_EQ(Eval("for $i in $d//item return "
                 "if ($i/qty) then $i/name else \"out-of-stock\""),
            (std::vector<std::string>{"apple", "pear", "out-of-stock"}));
}

TEST_F(FragmentTest, QuantifiedExpressions) {
  EXPECT_EQ(One("some $i in $d//item satisfies $i/price = 5"), "true");
  EXPECT_EQ(One("some $i in $d//item satisfies $i/price = 9"), "false");
  EXPECT_EQ(One("every $i in $d//item satisfies $i/price"), "true");
  EXPECT_EQ(One("every $i in $d//item satisfies $i/qty"), "false");
  // Multiple bindings nest.
  EXPECT_EQ(One("some $i in $d//item, $p in $i/price satisfies $p = 2"),
            "true");
  // Quantifiers over the empty sequence.
  EXPECT_EQ(One("some $i in $d//nope satisfies $i"), "false");
  EXPECT_EQ(One("every $i in $d//nope satisfies $i"), "true");
}

TEST_F(FragmentTest, UnionIsDistinctDocOrdered) {
  std::vector<std::string> v =
      Eval("$d//item[1]/name | $d//price | $d//item[1]/name");
  // names/prices interleave in document order; duplicates collapse.
  EXPECT_EQ(v, (std::vector<std::string>{"apple", "3", "5", "2"}));
}

TEST_F(FragmentTest, StringFunctions) {
  EXPECT_EQ(One("fn:string($d//item[1]/name)"), "apple");
  EXPECT_EQ(One("fn:string($d//nope)"), "");
  EXPECT_EQ(One("fn:string-length($d//item[1]/name)"), "5");
  EXPECT_EQ(One("fn:concat(\"a\", \"b\", \"c\")"), "abc");
  EXPECT_EQ(One("fn:contains($d//item[1]/name, \"ppl\")"), "true");
  EXPECT_EQ(One("fn:starts-with($d//item[2]/name, \"pe\")"), "true");
  EXPECT_EQ(One("fn:starts-with($d//item[2]/name, \"ap\")"), "false");
}

TEST_F(FragmentTest, NumberFunctions) {
  EXPECT_EQ(One("fn:number($d//item[1]/price)"), "3");
  EXPECT_EQ(One("fn:sum($d//price)"), "10");
  EXPECT_EQ(One("fn:sum($d//nope)"), "0");
}

TEST_F(FragmentTest, StringPredicates) {
  EXPECT_EQ(Eval("$d//item[starts-with(name, \"p\")]/name"),
            (std::vector<std::string>{"pear", "plum"}));
  EXPECT_EQ(Eval("$d//item[contains(name, \"ea\")]/name"),
            (std::vector<std::string>{"pear"}));
}

TEST_F(FragmentTest, UpwardAndSidewaysAxes) {
  EXPECT_EQ(Eval("$d//price/parent::item/name"),
            (std::vector<std::string>{"apple", "pear", "plum"}));
  EXPECT_EQ(Eval("$d//qty/ancestor::item/name"),
            (std::vector<std::string>{"apple", "pear"}));
  // two qty, their two items, and the shared inventory element.
  EXPECT_EQ(One("fn:count($d//qty/ancestor-or-self::*)"), "5");
  EXPECT_EQ(Eval("$d//item/name/following-sibling::price"),
            (std::vector<std::string>{"3", "5", "2"}));
  EXPECT_EQ(Eval("$d//item/qty/preceding-sibling::name"),
            (std::vector<std::string>{"apple", "pear"}));
}

TEST_F(FragmentTest, UpwardAxesStayOutOfPatterns) {
  auto cq = engine_.Compile("$d//qty/ancestor::item/name");
  ASSERT_TRUE(cq.ok());
  // Patterns cover the downward part only; the ancestor step remains a
  // navigational TreeJoin.
  EXPECT_GE(cq->Stats().tree_join_ops, 1);
}

TEST_F(FragmentTest, MixedExpressions) {
  EXPECT_EQ(One("fn:count($d//item[price > 2]) + fn:count($d//qty)"), "4");
  EXPECT_EQ(Eval("for $i in $d//item where $i/price * 2 > 5 "
                 "return $i/name"),
            (std::vector<std::string>{"apple", "pear"}));
  EXPECT_EQ(One("fn:sum(for $i in $d//item return "
                "fn:number($i/price) * (if ($i/qty) then "
                "fn:number($i/qty) else 0))"),
            "50");
}

}  // namespace
}  // namespace xqtp
