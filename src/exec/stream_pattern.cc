// Streaming evaluation of tree patterns — the paper's future-work item
// ("the possible use of streaming XPath algorithms").
//
// The document region under each context node is consumed as a single
// pre-order event stream (start/end element, attribute events). The
// evaluator maintains, per pattern step, a stack of open *match
// instances*; a doc node starting an event spawns an instance of step q
// for every open instance of q's parent step that it can extend along
// q's axis. Predicates cannot be decided at the start event (they need
// the node's subtree), so extraction candidates are buffered with their
// instance chain and resolved once the stream has closed every instance
// — the SPEX/XSQ-style buffering discipline.
//
// Only the downward pattern fragment is streamable; anything else falls
// back to the nested-loop evaluator, as do multi-output patterns.
#include <deque>
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
using xml::Node;

/// Pattern steps in pattern-tree DFS order (parents before children), so
/// that same-event matches (self / attribute axes) see their parent's
/// fresh instances.
void FlattenPattern(const PatternNode* p, const PatternNode* parent,
                    std::vector<const PatternNode*>* order,
                    std::vector<const PatternNode*>* parent_of,
                    std::vector<int>* pred_index) {
  order->push_back(p);
  parent_of->push_back(parent);
  pred_index->push_back(-1);
  const PatternNode* self = p;
  for (size_t i = 0; i < p->predicates.size(); ++i) {
    size_t at = order->size();
    FlattenPattern(p->predicates[i].get(), self, order, parent_of,
                   pred_index);
    (*pred_index)[at] = static_cast<int>(i);
  }
  if (p->next != nullptr) {
    FlattenPattern(p->next.get(), self, order, parent_of, pred_index);
  }
}

struct Instance {
  int step = -1;              ///< index into the flattened pattern
  const Node* node = nullptr;
  Instance* parent = nullptr; ///< instance of the parent pattern step
  std::vector<bool> pred_sat;
  bool next_matched = false;
  bool complete = false;      ///< set when the instance closes satisfied
};

class StreamEval {
 public:
  explicit StreamEval(const TreePattern& tp) {
    FlattenPattern(tp.root.get(), nullptr, &steps_, &parents_, &pred_idx_);
    for (size_t i = 0; i < steps_.size(); ++i) {
      for (size_t j = 0; j < steps_.size(); ++j) {
        if (parents_[i] == steps_[j]) {
          parent_step_[i] = static_cast<int>(j);
        }
      }
    }
    open_.resize(steps_.size());
    // Locate the extraction step (last main-path step).
    const PatternNode* ep = tp.ExtractionPoint();
    for (size_t i = 0; i < steps_.size(); ++i) {
      if (steps_[i] == ep) extraction_ = static_cast<int>(i);
    }
  }

  /// Streams the region rooted at `context` and collects candidate
  /// extraction nodes (resolved by Finish()).
  void Run(const Node* context) {
    context_ = context;
    // The context node opens as a virtual event around the whole region
    // scan: it can match a self / descendant-or-self root step, and —
    // under a self-like root instance — any later self-like step too
    // (e.g. self::t/descendant-or-self::node()). Its attributes are
    // events of the region as well, handled inside the start event.
    size_t n_self = StartNode(context);
    struct Frame {
      const Node* node;
      size_t n_spawned;
      bool entered;
    };
    std::vector<Frame> stack;
    for (const Node* c = context->first_child; c != nullptr;
         c = c->next_sibling) {
      stack.push_back({c, 0, false});
      while (!stack.empty()) {
        // One governor tick per stream event: a deadline or cancel
        // interrupts the scan mid-region (candidates are discarded by the
        // caller once the latched status surfaces).
        if (!gov_.Tick()) return;
        Frame& f = stack.back();
        if (!f.entered) {
          f.entered = true;
          f.n_spawned = StartNode(f.node);
          // Push children right-to-left so the leftmost pops first.
          std::vector<const Node*> kids;
          for (const Node* k = f.node->first_child; k != nullptr;
               k = k->next_sibling) {
            kids.push_back(k);
          }
          for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
            stack.push_back({*it, 0, false});
          }
        } else {
          EndNode(f.n_spawned);
          stack.pop_back();
        }
      }
    }
    EndNode(n_self);
  }

  /// The governor verdict that interrupted the stream, or OK.
  [[nodiscard]]
  const Status& status() const { return gov_.status(); }

  /// Resolves buffered candidates into output nodes, in stream order.
  std::vector<const Node*> Finish() {
    std::vector<const Node*> out;
    const Node* last = nullptr;
    for (const auto& [node, inst] : candidates_) {
      if (node == last) continue;
      bool ok = true;
      for (const Instance* i = inst; i != nullptr; i = i->parent) {
        if (!i->complete) {
          ok = false;
          break;
        }
      }
      if (ok) {
        out.push_back(node);
        last = node;
      }
    }
    return out;
  }

 private:
  /// Does `n` extend an instance of step s's parent along s's axis?
  /// Fills `bases` with the parent instances it extends (nullptr for a
  /// root-step match against the context region).
  void MatchBases(int s, const Node* n, std::vector<Instance*>* bases) {
    const PatternNode& q = *steps_[s];
    if (!xdm::MatchesTest(n, q.axis, q.test)) return;
    auto it = parent_step_.find(s);
    if (it == parent_step_.end()) {
      // Root step: relative to the context node (which is itself an
      // event of the scan — only self-like axes may match it).
      switch (q.axis) {
        case Axis::kChild:
        case Axis::kAttribute:
          if (n->parent == context_) bases->push_back(nullptr);
          break;
        case Axis::kDescendant:
          if (n != context_) bases->push_back(nullptr);
          break;
        case Axis::kDescendantOrSelf:
          bases->push_back(nullptr);  // anywhere in the region, self too
          break;
        case Axis::kSelf:
          if (n == context_) bases->push_back(nullptr);
          break;
        default:
          break;  // others unreachable in pattern grammar
      }
      return;
    }
    for (Instance* pi : open_[static_cast<size_t>(it->second)]) {
      switch (q.axis) {
        case Axis::kChild:
        case Axis::kAttribute:
          if (n->parent == pi->node) bases->push_back(pi);
          break;
        case Axis::kDescendant:
          if (pi->node != n) bases->push_back(pi);
          break;
        case Axis::kDescendantOrSelf:
          bases->push_back(pi);
          break;
        case Axis::kSelf:
          if (pi->node == n) bases->push_back(pi);
          break;
        default:
          break;
      }
    }
  }

  Instance* Spawn(int s, const Node* n, Instance* base) {
    arena_.emplace_back();
    Instance* inst = &arena_.back();
    inst->step = s;
    inst->node = n;
    inst->parent = base;
    inst->pred_sat.assign(steps_[static_cast<size_t>(s)]->predicates.size(),
                          false);
    open_[static_cast<size_t>(s)].push_back(inst);
    if (s == extraction_) candidates_.emplace_back(n, inst);
    return inst;
  }

  /// Start event: spawn instances for every step the node matches.
  /// Returns how many instances were pushed (popped by the end event).
  size_t StartNode(const Node* n) {
    CountNodesVisited(1);
    size_t spawned = 0;
    for (size_t s = 0; s < steps_.size(); ++s) {
      const PatternNode& q = *steps_[s];
      if (q.axis == Axis::kAttribute) continue;  // handled below
      std::vector<Instance*> bases;
      MatchBases(static_cast<int>(s), n, &bases);
      for (Instance* b : bases) {
        Spawn(static_cast<int>(s), n, b);
        ++spawned;
        pushed_.push_back(static_cast<int>(s));
      }
    }
    // Attribute events: attributes start and end within this event.
    StartAttributes(n);
    return spawned;
  }

  /// Attribute events for `n`: each attribute starts and ends within its
  /// owner's start event, so instances are spawned and closed in place.
  void StartAttributes(const Node* n) {
    size_t attr_marker = pushed_.size();
    for (size_t s = 0; s < steps_.size(); ++s) {
      const PatternNode& q = *steps_[s];
      if (q.axis != Axis::kAttribute) continue;
      for (const Node* a : n->attributes) {
        std::vector<Instance*> bases;
        MatchBases(static_cast<int>(s), a, &bases);
        for (Instance* b : bases) {
          Spawn(static_cast<int>(s), a, b);
          pushed_.push_back(static_cast<int>(s));
        }
      }
    }
    EndNode(pushed_.size() - attr_marker);  // attributes close immediately
  }

  /// End event: close the last `count` spawned instances, resolving their
  /// obligations and propagating satisfaction upward.
  void EndNode(size_t count) {
    for (size_t k = 0; k < count; ++k) {
      int s = pushed_.back();
      pushed_.pop_back();
      Instance* inst = open_[static_cast<size_t>(s)].back();
      open_[static_cast<size_t>(s)].pop_back();
      const PatternNode& q = *steps_[static_cast<size_t>(s)];
      bool sat = true;
      for (bool b : inst->pred_sat) sat = sat && b;
      if (q.next != nullptr && !inst->next_matched) sat = false;
      // The extraction step has no downstream obligation from `next`
      // (it IS the last main-path step) — q.next is null there anyway.
      inst->complete = sat;
      if (sat && inst->parent != nullptr) {
        int pi = pred_idx_[static_cast<size_t>(s)];
        if (pi >= 0) {
          inst->parent->pred_sat[static_cast<size_t>(pi)] = true;
        } else {
          inst->parent->next_matched = true;
        }
      }
      if (sat && inst->parent == nullptr) {
        // A complete root instance satisfies the (virtual) region root.
      }
    }
  }

  std::vector<const PatternNode*> steps_;
  std::vector<const PatternNode*> parents_;
  std::vector<int> pred_idx_;
  std::unordered_map<int, int> parent_step_;
  std::vector<std::vector<Instance*>> open_;
  std::vector<int> pushed_;  ///< LIFO of spawned instance step ids
  std::deque<Instance> arena_;
  std::vector<std::pair<const Node*, Instance*>> candidates_;
  const Node* context_ = nullptr;
  int extraction_ = -1;
  GovernorTicker gov_;
};

}  // namespace

Result<std::vector<BindingRow>> EvalPatternStream(
    const pattern::TreePattern& tp, const xdm::Sequence& context) {
  XQTP_FAULT_POINT("exec.pattern.stream");
  if (tp.root == nullptr) return std::vector<BindingRow>{};
  if (!tp.SingleOutputAtExtractionPoint() || !tp.UsesOnlyPatternAxes() ||
      tp.HasPositionalSteps()) {
    // Positional steps need per-parent counting, which the set-at-a-time
    // merges cannot express — delegate to the nested-loop evaluator.
    return EvalPatternNL(tp, context);
  }
  Symbol out = tp.OutputFields()[0];
  std::vector<BindingRow> rows;
  for (const xdm::Item& it : context) {
    if (!it.IsNode()) {
      return Status::TypeError(
          "tree pattern applied to a non-node context item");
    }
    StreamEval eval(tp);
    eval.Run(it.node());
    XQTP_RETURN_NOT_OK(eval.status());
    std::vector<const xml::Node*> nodes = eval.Finish();
    for (const xml::Node* n : nodes) {
      BindingRow row;
      row.fields.emplace_back(out, n);
      rows.push_back(std::move(row));
    }
  }
  FinalizeRows(&rows);
  return rows;
}

}  // namespace xqtp::exec
