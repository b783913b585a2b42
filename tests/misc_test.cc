// Smaller units: the shared function library, the DOT exporter,
// and deep/recursive document stress for the pattern algorithms.
#include <gtest/gtest.h>

#include "algebra/dot.h"
#include "engine/engine.h"
#include "exec/fn_lib.h"

namespace xqtp {
namespace {

TEST(FnLibTest, StringFunctions) {
  using core::CoreFn;
  using xdm::Item;
  using xdm::Sequence;
  auto call = [](CoreFn fn, std::vector<Sequence> args) {
    return exec::ApplyCoreFn(fn, args);
  };
  EXPECT_EQ((*call(CoreFn::kConcat, {{Item(std::string("a"))},
                                     {Item(std::string("b"))},
                                     {Item(std::string("c"))}}))[0]
                .str(),
            "abc");
  EXPECT_TRUE((*call(CoreFn::kContains, {{Item(std::string("hello"))},
                                         {Item(std::string("ell"))}}))[0]
                  .boolean());
  EXPECT_FALSE((*call(CoreFn::kStartsWith, {{Item(std::string("hello"))},
                                            {Item(std::string("ell"))}}))[0]
                   .boolean());
  EXPECT_EQ((*call(CoreFn::kStringLength, {{Item(std::string("abcd"))}}))[0]
                .integer(),
            4);
  // Empty-sequence arguments behave like the empty string.
  EXPECT_EQ((*call(CoreFn::kString, {{}}))[0].str(), "");
  EXPECT_TRUE((*call(CoreFn::kContains, {{Item(std::string("x"))}, {}}))[0]
                  .boolean());
  // Multi-item argument: type error.
  EXPECT_FALSE(call(CoreFn::kString,
                    {{Item(std::string("a")), Item(std::string("b"))}})
                   .ok());
}

TEST(FnLibTest, NumericFunctions) {
  using core::CoreFn;
  using xdm::Item;
  auto num = exec::ApplyCoreFn(CoreFn::kNumber, {{Item(std::string("abc"))}});
  ASSERT_TRUE(num.ok());
  EXPECT_NE((*num)[0].dbl(), (*num)[0].dbl());  // NaN
  auto sum = exec::ApplyCoreFn(
      CoreFn::kSum, {{Item(static_cast<int64_t>(1)), Item(2.5)}});
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ((*sum)[0].dbl(), 3.5);
  auto bad = exec::ApplyCoreFn(CoreFn::kSum, {{Item(std::string("x"))}});
  EXPECT_FALSE(bad.ok());
}

TEST(DotExportTest, RendersPlanGraph) {
  engine::Engine e;
  auto cq = e.Compile("$d//person[emailaddress]/name");
  ASSERT_TRUE(cq.ok());
  std::string dot =
      algebra::ToDot(cq->optimized(), cq->vars(), *e.interner());
  EXPECT_EQ(dot.rfind("digraph plan {", 0), 0u);
  EXPECT_NE(dot.find("TupleTreePattern"), std::string::npos);
  EXPECT_NE(dot.find("MapFromItem [dot : IN]"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("}\n"), std::string::npos);
  // No unescaped quotes inside labels.
  EXPECT_EQ(dot.find("label=\"\""), std::string::npos);
}

TEST(RecursiveDocumentStress, DeeplyNestedSameTag) {
  // a/a/a/.../a, 300 levels: recursion-sensitive algorithms must cope and
  // agree.
  std::string xml;
  for (int i = 0; i < 300; ++i) xml += "<a>";
  xml += "<b/>";
  for (int i = 0; i < 300; ++i) xml += "</a>";
  engine::Engine e;
  auto doc = e.LoadDocument("d", xml);
  ASSERT_TRUE(doc.ok());
  const char* queries[] = {
      "fn:count($d//a)", "fn:count($d//a//a)", "fn:count($d//a[a])",
      "fn:count($d//a[b])", "fn:count($d//a//b)",
  };
  for (const char* q : queries) {
    auto cq = e.Compile(q);
    ASSERT_TRUE(cq.ok()) << q;
    engine::Engine::GlobalMap globals{
        {"d", {xdm::Item(doc.value()->root())}}};
    auto ref = e.Execute(*cq, globals, {.algo = exec::PatternAlgo::kNLJoin});
    ASSERT_TRUE(ref.ok()) << q;
    for (auto algo :
         {exec::PatternAlgo::kStaircase, exec::PatternAlgo::kTwig,
          exec::PatternAlgo::kTwigStack, exec::PatternAlgo::kStream,
          exec::PatternAlgo::kShredded}) {
      auto res = e.Execute(*cq, globals, {.algo = algo});
      ASSERT_TRUE(res.ok()) << q << " " << exec::PatternAlgoName(algo);
      EXPECT_EQ((*res)[0].integer(), (*ref)[0].integer())
          << q << " " << exec::PatternAlgoName(algo);
    }
  }
  // Expected values by construction.
  auto count = [&](const char* q) {
    auto res = e.Run(q, *doc.value());
    return res.ok() ? (*res)[0].integer() : -1;
  };
  EXPECT_EQ(count("fn:count($d//a)"), 300);
  EXPECT_EQ(count("fn:count($d//a[a])"), 299);
  EXPECT_EQ(count("fn:count($d//a[b])"), 1);
  // 299 (a, b) embeddings exist, but the path returns the single distinct
  // b node (XPath duplicate elimination).
  EXPECT_EQ(count("fn:count($d//a//b)"), 1);
}

}  // namespace
}  // namespace xqtp
