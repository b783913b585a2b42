// Classic TwigStack evaluation of tree patterns [Bruno, Koudas &
// Srivastava, SIGMOD'02] — the second twig-join variant (the paper's
// future work mentions "evaluating the benefits of other variants of
// Twigjoin algorithms"; exec/twig_pattern.cc implements a three-phase
// merge-semijoin holistic join, this file the original stack-based
// algorithm).
//
// One cursor per pattern node over its document-ordered tag stream;
// getNext() returns the next stream head that is guaranteed (for
// descendant edges) to participate in a solution, skipping heads whose
// subtrees cannot contain the other branches' heads. Stack elements
// record the chain of open ancestors; leaf events mark root-to-leaf path
// solutions. A final merge keeps the extraction bindings whose chains are
// marked by every pattern leaf (child edges are verified with parent
// pointers during the merge).
#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/exec_stats.h"
#include "common/fault_injection.h"
#include "exec/governor.h"
#include "exec/pattern_eval.h"
#include "xdm/sequence_ops.h"
#include "xml/document.h"

namespace xqtp::exec {

namespace {

using pattern::PatternNode;
using pattern::PatternNodePtr;
using pattern::TreePattern;
using xml::Document;
using xml::Node;

using NodeVec = std::vector<const Node*>;

constexpr int32_t kInfinity = INT32_MAX;

const NodeVec& StreamFor(const Document& doc, const PatternNode& q) {
  static const NodeVec kEmpty;
  if (q.axis == Axis::kAttribute) {
    if (q.test.kind == NodeTestKind::kName) {
      return doc.AttributesByName(q.test.name);
    }
    return kEmpty;
  }
  switch (q.test.kind) {
    case NodeTestKind::kName:
      return doc.ElementsByTag(q.test.name);
    case NodeTestKind::kAnyName:
      return doc.AllElements();
    case NodeTestKind::kText:
      return doc.TextNodes();
    case NodeTestKind::kAnyNode:
      return doc.AllNodes();
  }
  return doc.AllNodes();
}

/// Flattened pattern: nodes in DFS order, with parent indices, the set of
/// leaves, and per-node leaf masks.
struct FlatPattern {
  std::vector<const PatternNode*> nodes;
  std::vector<int> parent;            ///< -1 for the root
  std::vector<std::vector<int>> children;
  std::vector<int> main_path;         ///< indices along root->extraction
  std::vector<uint32_t> leaves_under; ///< leaf bitmask of each subtree
  int leaf_count = 0;
  std::vector<int> leaf_id;           ///< per node: its leaf id or -1
};

void Flatten(const PatternNode* p, int parent, FlatPattern* fp) {
  int id = static_cast<int>(fp->nodes.size());
  fp->nodes.push_back(p);
  fp->parent.push_back(parent);
  fp->children.emplace_back();
  fp->leaf_id.push_back(-1);
  if (parent >= 0) fp->children[static_cast<size_t>(parent)].push_back(id);
  for (const PatternNodePtr& pred : p->predicates) {
    Flatten(pred.get(), id, fp);
  }
  if (p->next != nullptr) Flatten(p->next.get(), id, fp);
}

FlatPattern MakeFlat(const TreePattern& tp) {
  FlatPattern fp;
  Flatten(tp.root.get(), -1, &fp);
  size_t n = fp.nodes.size();
  fp.leaves_under.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (fp.children[i].empty()) {
      fp.leaf_id[i] = fp.leaf_count++;
    }
  }
  // Masks bottom-up (children have larger DFS ids).
  for (size_t i = n; i-- > 0;) {
    if (fp.leaf_id[i] >= 0) {
      fp.leaves_under[i] = 1u << fp.leaf_id[i];
    }
    for (int c : fp.children[i]) {
      fp.leaves_under[i] |= fp.leaves_under[static_cast<size_t>(c)];
    }
  }
  for (const PatternNode* p = tp.root.get(); p != nullptr;
       p = p->next.get()) {
    for (size_t i = 0; i < n; ++i) {
      if (fp.nodes[i] == p) fp.main_path.push_back(static_cast<int>(i));
    }
  }
  return fp;
}

/// One (possibly popped) stack element, kept in a per-pattern-node arena
/// so path solutions survive pops.
struct Element {
  const Node* node = nullptr;
  int parent_top = -1;  ///< arena index in the parent node's arena
  int below = -1;       ///< arena index of the element below in the stack
  uint32_t mark = 0;    ///< leaves whose path solutions include this element
  int8_t valid_memo = -1;  ///< merge memo: -1 unknown, 0 invalid, 1 valid
};

class TwigStack {
 public:
  TwigStack(const TreePattern& tp, const Document& doc, NodeVec root_stream)
      : fp_(MakeFlat(tp)), root_stream_(std::move(root_stream)) {
    size_t n = fp_.nodes.size();
    streams_.resize(n);
    cursor_.assign(n, 0);
    arena_.resize(n);
    stack_top_.assign(n, -1);
    for (size_t i = 0; i < n; ++i) {
      streams_[i] = i == 0 ? &root_stream_ : &StreamFor(doc, *fp_.nodes[i]);
    }
  }

  /// Runs the join; returns the extraction bindings in document order.
  /// A tripped governor abandons the merge — the caller's poll surfaces
  /// the latched verdict and the truncated result is discarded.
  NodeVec Run() {
    GovernorTicker gov;
    for (;;) {
      if (!gov.Tick()) return {};
      int q = GetNext(0);
      if (HeadPre(q) == kInfinity) break;
      const Node* v = Head(q);
      int parent = fp_.parent[static_cast<size_t>(q)];
      if (parent >= 0) CleanStack(parent, v);
      if (parent < 0 || stack_top_[static_cast<size_t>(parent)] >= 0) {
        CleanStack(q, v);
        Push(q, v);
        if (fp_.leaf_id[static_cast<size_t>(q)] >= 0) {
          MarkPathSolutions(q);
          Pop(q);
        }
      }
      Advance(q);
    }
    return Merge();
  }

 private:
  const Node* Head(int q) const {
    size_t c = cursor_[static_cast<size_t>(q)];
    const NodeVec& s = *streams_[static_cast<size_t>(q)];
    return c < s.size() ? s[c] : nullptr;
  }
  int32_t HeadPre(int q) const {
    const Node* n = Head(q);
    return n == nullptr ? kInfinity : n->pre;
  }
  int32_t HeadPost(int q) const {
    const Node* n = Head(q);
    return n == nullptr ? kInfinity : n->post;
  }
  void Advance(int q) {
    ++cursor_[static_cast<size_t>(q)];
    CountIndexEntries(1);
  }

  /// The classic getNext: returns a pattern node whose head is the next
  /// to process; skips heads that cannot cover the children's heads.
  int GetNext(int q) {
    if (fp_.children[static_cast<size_t>(q)].empty()) return q;
    int nmin = -1, nmax = -1;
    for (int qi : fp_.children[static_cast<size_t>(q)]) {
      int ni = GetNext(qi);
      if (ni != qi) return ni;
      if (nmin < 0 || HeadPre(qi) < HeadPre(nmin)) nmin = qi;
      if (nmax < 0 || HeadPre(qi) > HeadPre(nmax)) nmax = qi;
    }
    // Skip q's heads whose subtrees end strictly before nmax's head
    // starts (pre < pre AND post < post means disjoint-and-before in the
    // rank encoding): such heads cannot have all child heads below them.
    while (HeadPre(q) < HeadPre(nmax) && HeadPost(q) < HeadPost(nmax)) {
      Advance(q);
    }
    // Tie goes to q: with descendant-or-self edges a child step's stream
    // can head the very node q is about to push (self edge), and q's
    // element must be on the stack before the child's is chained to it.
    if (HeadPre(q) <= HeadPre(nmin)) return q;
    return nmin;
  }

  /// Pops elements whose subtree ends before `v` starts (not ancestors).
  void CleanStack(int q, const Node* v) {
    while (stack_top_[static_cast<size_t>(q)] >= 0) {
      const Element& top =
          arena_[static_cast<size_t>(q)]
                [static_cast<size_t>(stack_top_[static_cast<size_t>(q)])];
      // Keep ancestors-or-self: equal post means v is the same node (a
      // self edge under descendant-or-self), which must stay chainable.
      if (top.node->post >= v->post) break;
      Pop(q);
    }
  }

  void Push(int q, const Node* v) {
    Element e;
    e.node = v;
    int parent = fp_.parent[static_cast<size_t>(q)];
    e.parent_top = parent < 0 ? -1 : stack_top_[static_cast<size_t>(parent)];
    e.below = stack_top_[static_cast<size_t>(q)];
    arena_[static_cast<size_t>(q)].push_back(e);
    stack_top_[static_cast<size_t>(q)] =
        static_cast<int>(arena_[static_cast<size_t>(q)].size()) - 1;
  }

  void Pop(int q) {
    int top = stack_top_[static_cast<size_t>(q)];
    stack_top_[static_cast<size_t>(q)] =
        arena_[static_cast<size_t>(q)][static_cast<size_t>(top)].below;
  }

  /// Is `parent_elem_node` a valid step-parent of `elem_node` along the
  /// axis of pattern node q? The stack chains already guarantee
  /// containment (ancestor-or-self), so only the axis-specific part needs
  /// checking.
  bool EdgeOk(int q, const Node* elem_node,
              const Node* parent_elem_node) const {
    switch (fp_.nodes[static_cast<size_t>(q)]->axis) {
      case Axis::kChild:
      case Axis::kAttribute:
        return elem_node->parent == parent_elem_node;
      case Axis::kDescendant:
        return parent_elem_node != elem_node;  // proper ancestor
      case Axis::kSelf:
        return parent_elem_node == elem_node;
      default:
        return true;  // descendant-or-self
    }
  }

  /// A leaf was pushed: mark its ancestor closure with the leaf bit (the
  /// compact encoding of all root-to-leaf path solutions), following only
  /// axis-consistent edges.
  void MarkPathSolutions(int leaf) {
    uint32_t bit = 1u << fp_.leaf_id[static_cast<size_t>(leaf)];
    MarkUp(leaf, stack_top_[static_cast<size_t>(leaf)], bit);
  }

  void MarkUp(int q, int elem_idx, uint32_t bit) {
    Element& e =
        arena_[static_cast<size_t>(q)][static_cast<size_t>(elem_idx)];
    if ((e.mark & bit) != 0) return;  // propagation already done for bit
    e.mark |= bit;
    int parent = fp_.parent[static_cast<size_t>(q)];
    if (parent < 0) return;
    for (int idx = e.parent_top; idx >= 0;
         idx = arena_[static_cast<size_t>(parent)][static_cast<size_t>(idx)]
                   .below) {
      const Element& pe =
          arena_[static_cast<size_t>(parent)][static_cast<size_t>(idx)];
      if (EdgeOk(q, e.node, pe.node)) MarkUp(parent, idx, bit);
    }
  }

  /// True iff element `e` of pattern node `q` is marked by every leaf of
  /// q's subtree (it roots a complete sub-twig match).
  bool FullyMarked(int q, const Element& e) const {
    uint32_t need = fp_.leaves_under[static_cast<size_t>(q)];
    return (e.mark & need) == need;
  }

  /// Merge: extraction bindings with a fully-marked, edge-consistent
  /// chain to the root.
  NodeVec Merge() {
    int depth = static_cast<int>(fp_.main_path.size());
    NodeVec out;
    int ext = fp_.main_path[static_cast<size_t>(depth - 1)];
    auto& ext_arena = arena_[static_cast<size_t>(ext)];
    for (size_t i = 0; i < ext_arena.size(); ++i) {
      if (Valid(depth - 1, static_cast<int>(i))) {
        out.push_back(ext_arena[i].node);
      }
    }
    std::sort(out.begin(), out.end(), xml::DocOrderLess);
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  bool Valid(int level, int elem_idx) {
    int q = fp_.main_path[static_cast<size_t>(level)];
    Element& e = arena_[static_cast<size_t>(q)][static_cast<size_t>(elem_idx)];
    if (e.valid_memo >= 0) return e.valid_memo == 1;
    e.valid_memo = 0;
    if (!FullyMarked(q, e)) return false;
    if (level == 0) {
      e.valid_memo = 1;
      return true;
    }
    // Any ancestor in the parent chain that is itself valid and satisfies
    // the step's axis.
    int parent_q = fp_.main_path[static_cast<size_t>(level - 1)];
    for (int anc = e.parent_top; anc >= 0;
         anc = arena_[static_cast<size_t>(parent_q)][static_cast<size_t>(anc)]
                   .below) {
      const Element& pe =
          arena_[static_cast<size_t>(parent_q)][static_cast<size_t>(anc)];
      if (!EdgeOk(q, e.node, pe.node)) continue;
      if (Valid(level - 1, anc)) {
        e.valid_memo = 1;
        return true;
      }
    }
    return false;
  }

  FlatPattern fp_;
  NodeVec root_stream_;
  std::vector<const NodeVec*> streams_;
  std::vector<size_t> cursor_;
  std::vector<std::vector<Element>> arena_;
  std::vector<int> stack_top_;
};

/// Root stream: stream of the root step, restricted to nodes reachable
/// from the contexts along the root step's axis.
NodeVec RootStream(const Document& doc, const PatternNode& root,
                   const NodeVec& ctx) {
  const NodeVec& stream = StreamFor(doc, root);
  NodeVec out;
  switch (root.axis) {
    case Axis::kChild:
    case Axis::kAttribute: {
      for (const Node* c : ctx) {
        if (root.axis == Axis::kChild) {
          for (const Node* k = c->first_child; k != nullptr;
               k = k->next_sibling) {
            if (xdm::MatchesTest(k, root.axis, root.test)) out.push_back(k);
          }
        } else {
          for (const Node* a : c->attributes) {
            if (xdm::MatchesTest(a, root.axis, root.test)) out.push_back(a);
          }
        }
      }
      std::sort(out.begin(), out.end(), xml::DocOrderLess);
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    }
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      size_t pos = 0;
      for (const Node* c : ctx) {
        if (root.axis == Axis::kDescendantOrSelf &&
            xdm::MatchesTest(c, root.axis, root.test)) {
          out.push_back(c);
        }
        CountIndexSkip();
        auto it = std::upper_bound(
            stream.begin() + static_cast<ptrdiff_t>(pos), stream.end(),
            c->pre, [](int32_t pre, const Node* n) { return pre < n->pre; });
        pos = static_cast<size_t>(it - stream.begin());
        while (pos < stream.size() && stream[pos]->post < c->post) {
          out.push_back(stream[pos]);
          ++pos;
        }
      }
      std::sort(out.begin(), out.end(), xml::DocOrderLess);
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    }
    case Axis::kSelf:
      for (const Node* c : ctx) {
        if (xdm::MatchesTest(c, root.axis, root.test)) out.push_back(c);
      }
      return out;
    default:
      return out;  // guarded by UsesOnlyPatternAxes
  }
}

}  // namespace

Result<std::vector<BindingRow>> EvalPatternTwigStack(
    const TreePattern& tp, const xdm::Sequence& context) {
  XQTP_FAULT_POINT("exec.pattern.twigstack");
  if (tp.root == nullptr) return std::vector<BindingRow>{};
  if (!tp.SingleOutputAtExtractionPoint() || !tp.UsesOnlyPatternAxes() ||
      tp.HasPositionalSteps() || tp.StepCount() > 32) {
    // (StepCount bounds the leaf count for the 32-bit mark bitmask.)
    return EvalPatternNL(tp, context);
  }
  NodeVec ctx;
  ctx.reserve(context.size());
  for (const xdm::Item& it : context) {
    if (!it.IsNode()) {
      return Status::TypeError(
          "tree pattern applied to a non-node context item");
    }
    ctx.push_back(it.node());
  }
  if (ctx.empty()) return std::vector<BindingRow>{};
  std::sort(ctx.begin(), ctx.end(), xml::DocOrderLess);
  ctx.erase(std::unique(ctx.begin(), ctx.end()), ctx.end());
  for (const Node* n : ctx) {
    if (n->doc != ctx.front()->doc) return EvalPatternNL(tp, context);
  }
  const Document& doc = *ctx.front()->doc;

  TwigStack join(tp, doc, RootStream(doc, *tp.root, ctx));
  NodeVec result = join.Run();
  XQTP_RETURN_NOT_OK(GovernorPoll());

  Symbol out = tp.OutputFields()[0];
  std::vector<BindingRow> rows;
  rows.reserve(result.size());
  for (const Node* n : result) {
    BindingRow row;
    row.fields.emplace_back(out, n);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace xqtp::exec
