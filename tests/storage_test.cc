// Tests for the relational shredding (the XPath accelerator encoding of
// the paper's last future-work item).
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "storage/node_table.h"
#include "workload/member_gen.h"

namespace xqtp::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = engine_.LoadDocument(
        "d",
        "<r><a id=\"1\"><b>x</b><c/></a><a><b/><b/></a></r>");
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    doc_ = doc.value();
  }

  engine::Engine engine_;
  const xml::Document* doc_;
};

TEST_F(StorageTest, ColumnsMatchTheTree) {
  const NodeTable& t = NodeTable::For(*doc_);
  // doc, r, a, @id, b, text, c, a, b, b = 10 rows.
  EXPECT_EQ(t.size(), 10);
  // Row 0 is the document node.
  EXPECT_EQ(t.kind(0), xml::NodeKind::kDocument);
  EXPECT_EQ(t.parent(0), -1);
  EXPECT_EQ(t.level(0), 0);
  // Row ids are pre ranks and parents agree with the tree.
  const xml::Node* r = doc_->root()->first_child;
  EXPECT_EQ(t.row(r), 1);
  EXPECT_EQ(t.node(1), r);
  EXPECT_EQ(t.parent(t.row(r->first_child)), t.row(r));
  // Attribute rows carry the attribute kind and name.
  Symbol id = engine_.interner()->Lookup("id");
  ASSERT_EQ(t.AttributeRows(id).size(), 1u);
  EXPECT_EQ(t.kind(t.AttributeRows(id)[0]), xml::NodeKind::kAttribute);
}

TEST_F(StorageTest, TagRowsAreSorted) {
  const NodeTable& t = NodeTable::For(*doc_);
  Symbol b = engine_.interner()->Lookup("b");
  const std::vector<RowId>& rows = t.ElementRows(b);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_TRUE(t.ElementRows(engine_.interner()->Intern("zzz")).empty());
}

TEST_F(StorageTest, AncestorColumnTest) {
  const NodeTable& t = NodeTable::For(*doc_);
  const xml::Node* r = doc_->root()->first_child;
  const xml::Node* a1 = r->first_child;
  const xml::Node* b1 = a1->first_child;
  const xml::Node* a2 = a1->next_sibling;
  EXPECT_TRUE(t.IsAncestor(t.row(r), t.row(b1)));
  EXPECT_TRUE(t.IsAncestor(t.row(a1), t.row(b1)));
  EXPECT_FALSE(t.IsAncestor(t.row(a2), t.row(b1)));
  EXPECT_FALSE(t.IsAncestor(t.row(b1), t.row(a1)));
}

TEST_F(StorageTest, ExtensionIsCachedOnTheDocument) {
  const NodeTable& t1 = NodeTable::For(*doc_);
  const NodeTable& t2 = NodeTable::For(*doc_);
  EXPECT_EQ(&t1, &t2);
}

TEST_F(StorageTest, ShreddedEvaluationMatchesPointerBased) {
  engine::Engine e2;
  workload::MemberParams p;
  p.node_count = 15000;
  p.max_depth = 6;
  p.num_tags = 20;
  p.plant_twigs = 10;
  const xml::Document* d =
      e2.AddDocument("m", workload::GenerateMember(p, e2.interner()));
  const char* queries[] = {
      "$input//t01[t02]/t03", "$input/desc::t04[desc::t03]",
      "$input//t01/t02", "$input//t05[t06][t07]",
      "$input//node()/t01",
  };
  for (const char* q : queries) {
    auto cq = e2.Compile(q);
    ASSERT_TRUE(cq.ok()) << q;
    engine::Engine::GlobalMap globals{{"input", {xdm::Item(d->root())}}};
    auto ref = e2.Execute(*cq, globals,
        {.algo = exec::PatternAlgo::kStaircase});
    auto sh = e2.Execute(*cq, globals, {.algo = exec::PatternAlgo::kShredded});
    ASSERT_TRUE(ref.ok() && sh.ok()) << q;
    ASSERT_EQ(ref->size(), sh->size()) << q;
    for (size_t i = 0; i < ref->size(); ++i) {
      EXPECT_TRUE((*ref)[i] == (*sh)[i]) << q << " item " << i;
    }
  }
}

TEST_F(StorageTest, ShreddedPositionalSteps) {
  engine::CompileOptions opts;
  opts.positional_patterns = true;
  auto cq = engine_.Compile("$d/r/a[2]/b[1]", opts);
  ASSERT_TRUE(cq.ok());
  engine::Engine::GlobalMap globals{{"d", {xdm::Item(doc_->root())}}};
  auto sh = engine_.Execute(*cq, globals,
      {.algo = exec::PatternAlgo::kShredded});
  auto nl = engine_.Execute(*cq, globals, {.algo = exec::PatternAlgo::kNLJoin});
  ASSERT_TRUE(sh.ok() && nl.ok());
  ASSERT_EQ(sh->size(), 1u);
  EXPECT_TRUE((*sh)[0] == (*nl)[0]);
}

}  // namespace
}  // namespace xqtp::storage
