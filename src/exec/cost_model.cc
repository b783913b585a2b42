#include "exec/cost_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/exec_stats.h"
#include "xdm/sequence_ops.h"

namespace xqtp::exec {

namespace {

using pattern::PatternNode;
using pattern::PatternNodePtr;
using xml::Document;
using xml::Node;

// Calibration: estimated ns = fixed_ns + ns_per_unit * units +
// ns_per_probe * predicate probes, per algorithm. The constants come from
// the calibration run of 2026-10-17 on a 4-core 2.1 GHz x86-64 host,
// Release build: every pattern evaluation of the 25 queries in
// bench_costmodel's e2e group and of its four archetypes, timed under NL,
// SC and TJ in turn at threads = 1 (two runs, median of 5 and of 7
// repetitions per evaluation; each evaluation timed before anything else
// touched its context, as in a memoized execution). They minimize, summed
// over the queries, the log-ratio of the chosen algorithms' time to the
// fastest fixed algorithm's. The fixed cost is what one call pays before
// it touches the data (context sort, per-call vectors, hash tables); with
// NL's cost per visited node — sibling hops are cache misses — it decides
// the per-row contexts of FLWOR bodies: SC for an XMark auction or
// person, NL for a childless MemBeR node.
struct Calibration {
  double fixed_ns;
  double ns_per_unit;
  double ns_per_probe;  ///< per existence probe of a predicate branch
};
constexpr Calibration kNl{210, 15.0, 70};
constexpr Calibration kSc{195, 3.6, 105};
constexpr Calibration kTj{195, 10.5, 0};

/// Contexts and stream nodes examined per estimate: the model samples
/// rather than scans, so an estimate stays far cheaper than the cheapest
/// evaluation.
constexpr size_t kSamples = 8;

/// Children walked per node before the rest is extrapolated.
constexpr double kChildWalk = 64;

/// Nodes strictly below `n`, attributes included (the pre/post/depth
/// region encoding gives it exactly).
int32_t Descendants(const Node* n) { return n->post - n->pre + n->depth; }

double Log2(double x) { return std::log2(x + 2); }

/// What the choice memo keys on: a context's document, size, subtree
/// window and depth.
struct ContextShape {
  const Document* doc = nullptr;  ///< null: the context holds no node
  double size = 0;                ///< context nodes
  double window = 0;  ///< nodes in their subtrees (pre/post region sizes)
  int min_depth = 0;  ///< depth of the shallowest one
};

/// The shape of `context` (its first node's document).
ContextShape ShapeOf(const xdm::Sequence& context) {
  ContextShape shape;
  for (const xdm::Item& it : context) {
    if (!it.IsNode()) continue;
    const Node* n = it.node();
    if (shape.doc == nullptr) {
      shape.doc = n->doc;
      shape.min_depth = n->depth;
    }
    shape.min_depth = std::min(shape.min_depth, static_cast<int>(n->depth));
    shape.size += 1;
    shape.window += 1 + Descendants(n);
  }
  return shape;
}

}  // namespace

const DocStats& StatsFor(const Document& doc) { return doc.Stats(); }

PatternCost::PatternCost(const pattern::TreePattern& tp, const Document& doc)
    : tp_(tp),
      doc_(doc),
      doc_nodes_(static_cast<double>(std::max<size_t>(1, doc.node_count()))) {
  if (tp.root == nullptr) return;
  AddSteps(*tp.root, nullptr);
  sc_native_ = tp.SingleOutputAtExtractionPoint();
  tj_native_ = sc_native_ && tp.UsesOnlyPatternAxes() &&
               !tp.HasPositionalSteps();
}

const std::vector<const Node*>* PatternCost::IndexStream(
    const PatternNode& q) const {
  if (q.axis == Axis::kAttribute) {
    if (q.test.kind == NodeTestKind::kName) {
      return &doc_.AttributesByName(q.test.name);
    }
    return nullptr;
  }
  switch (q.test.kind) {
    case NodeTestKind::kName:
      return &doc_.ElementsByTag(q.test.name);
    case NodeTestKind::kAnyName:
      return &doc_.AllElements();
    case NodeTestKind::kText:
    case NodeTestKind::kAnyNode:
      break;
  }
  return nullptr;
}

PatternCost::Flow PatternCost::From(const Node* n, const PatternNode& q,
                                    std::vector<const Node*>* bound) const {
  const Step& s = StepOf(q);
  Flow f;
  f.parents = 1;
  auto lo = std::vector<const Node*>::const_iterator();
  if (s.index != nullptr) {
    const auto pre_less = [](int32_t pre, const Node* m) {
      return pre < m->pre;
    };
    lo = std::upper_bound(s.index->begin(), s.index->end(), n->pre,
                          pre_less);
    const auto hi = std::upper_bound(lo, s.index->end(),
                                     n->pre + Descendants(n), pre_less);
    f.scanned = static_cast<double>(hi - lo);
  } else {
    f.scanned = s.stream * (1 + Descendants(n)) / doc_nodes_;
  }
  const size_t first_bound = bound != nullptr ? bound->size() : 0;
  const auto bind = [&](const Node* m) {
    if (bound != nullptr && bound->size() < 2 * kSamples) bound->push_back(m);
  };
  switch (q.axis) {
    case Axis::kChild: {
      // Walk at most kChildWalk children; past that, extrapolate from
      // the subtree share they covered.
      double covered = 0;
      for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
        if (f.visits >= kChildWalk) {
          const double scale = Descendants(n) / std::max(1.0, covered);
          f.visits *= scale;
          f.hits *= scale;
          break;
        }
        f.visits += 1;
        covered += 1 + Descendants(c);
        if (xdm::MatchesTest(c, q.axis, q.test)) {
          f.hits += 1;
          bind(c);
        }
      }
      break;
    }
    case Axis::kAttribute:
      for (const Node* a : n->attributes) {
        f.visits += 1;
        if (xdm::MatchesTest(a, q.axis, q.test)) {
          f.hits += 1;
          bind(a);
        }
      }
      break;
    case Axis::kSelf:
      f.visits = 1;
      if (xdm::MatchesTest(n, q.axis, q.test)) {
        f.hits = 1;
        bind(n);
      }
      break;
    default: {  // the descendant axes, and the non-pattern axes roughly
      f.visits = 1 + Descendants(n);
      if (q.axis == Axis::kDescendantOrSelf &&
          xdm::MatchesTest(n, q.axis, q.test)) {
        f.hits = 1;
        bind(n);
      }
      f.hits += f.scanned;
      if (s.index != nullptr && f.scanned > 0) {
        // Two evenly spaced bindings out of the window.
        const auto count = static_cast<size_t>(f.scanned);
        bind(*(lo + static_cast<ptrdiff_t>(count / 4)));
        if (count > 1) bind(*(lo + static_cast<ptrdiff_t>(3 * count / 4)));
      }
      break;
    }
  }
  if (q.position > 0 && f.hits > 1) {
    // Only the position-th match binds.
    f.hits = 1;
    if (bound != nullptr && bound->size() > first_bound + 1) {
      bound->erase(bound->begin() + static_cast<ptrdiff_t>(first_bound + 1),
                   bound->end());
    }
  }
  return f;
}

void PatternCost::AddSteps(const PatternNode& q, const PatternNode* parent) {
  Step& s = steps_[&q];
  s.index = IndexStream(q);
  if (s.index != nullptr) {
    s.stream = static_cast<double>(s.index->size());
  } else {
    // text() and node(): sized from the document statistics.
    const DocStats& stats = doc_.Stats();
    s.stream = static_cast<double>(q.test.kind == NodeTestKind::kText
                                       ? stats.node_count - stats.element_count
                                       : stats.node_count);
  }
  if (parent != nullptr) {
    // What one node of the parent step sees of this step, averaged over
    // a few evenly spaced nodes of the parent's stream.
    const Step& p = StepOf(*parent);
    if (p.index != nullptr && !p.index->empty()) {
      const std::vector<const Node*>& stream = *p.index;
      const size_t stride = std::max<size_t>(1, stream.size() / kSamples);
      double n = 0;
      for (size_t i = stride / 2; i < stream.size(); i += stride) {
        const Flow f = From(stream[i], q, nullptr);
        s.per_parent.visits += f.visits;
        s.per_parent.scanned += f.scanned;
        s.per_parent.hits += f.hits;
        n += 1;
      }
      s.per_parent.visits /= n;
      s.per_parent.scanned /= n;
      s.per_parent.hits /= n;
    } else {
      // No index to sample: spread this step's nodes evenly over the
      // parent's.
      const double share = p.stream > 0 ? s.stream / p.stream : 0;
      s.per_parent.visits = doc_nodes_ / std::max(1.0, p.stream);
      s.per_parent.scanned = share;
      s.per_parent.hits = share;
    }
    s.per_parent.parents = 1;
  }
  for (const PatternNodePtr& p : q.predicates) AddSteps(*p, &q);
  if (q.next != nullptr) AddSteps(*q.next, &q);
}

PatternCost::Flow PatternCost::StepFlow(const PatternNode& q,
                                        double parents) const {
  // Parent bindings are taken as a uniform pick of the parent's stream.
  const Step& s = StepOf(q);
  Flow f;
  f.parents = parents;
  f.visits = parents * s.per_parent.visits;
  f.scanned = parents * s.per_parent.scanned;
  // Distinct bindings: never more than the stream holds.
  f.hits = std::min(parents * s.per_parent.hits, s.stream);
  return f;
}

PatternCost::Units PatternCost::Probe(const PatternNode& p) const {
  // One existence probe of the predicate sub-twig `p` from one node of
  // the step it hangs on.
  const Flow& f = StepOf(p).per_parent;
  Units u;
  // NL materializes the step's whole candidate list, then stops at the
  // first candidate whose own branches match.
  u.nl = f.visits;
  u.nl_probes = 1;
  // SC: one binary search plus the stream window below the node; every
  // candidate in it is filtered through the branches.
  u.sc = Log2(StepOf(p).stream) + f.scanned;
  u.sc_probes = 1;
  const double tries = std::min(1.0, f.hits);
  const auto add = [&](const PatternNode& c) {
    const Units sub = Probe(c);
    u.nl += tries * sub.nl;
    u.nl_probes += tries * sub.nl_probes;
    u.sc += f.hits * sub.sc;
    u.sc_probes += f.hits * sub.sc_probes;
  };
  for (const PatternNodePtr& c : p.predicates) add(*c);
  if (p.next != nullptr) add(*p.next);
  return u;
}

double PatternCost::TwigStep(const PatternNode& q, const Flow& f) const {
  // Window the step's stream into the parent set's regions: a binary
  // search per parent; covered regions are pruned, so at most the whole
  // stream. Child edges then hash-join on the parent.
  const double stream = StepOf(q).stream;
  const double scanned = std::min(f.scanned, stream);
  double units = f.parents * Log2(stream) + scanned;
  if (q.axis == Axis::kChild || q.axis == Axis::kAttribute) {
    units += 2 * (f.parents + scanned);
  }
  return units;
}

double PatternCost::TwigUnits(const PatternNode& q, const Flow& f) const {
  // A predicate sub-twig, set-at-a-time: each step's set, then a semijoin
  // of its sub-twigs' sets back into it.
  double units = TwigStep(q, f);
  for (const PatternNodePtr& p : q.predicates) {
    units += TwigUnits(*p, StepFlow(*p, f.hits)) + f.hits;
  }
  if (q.next != nullptr) {
    units += TwigUnits(*q.next, StepFlow(*q.next, f.hits)) + f.hits;
  }
  return units;
}

PatternCost::Units PatternCost::MainPath(const xdm::Sequence& context) const {
  // Walk the main path on a sample: the first kSamples context nodes,
  // then a few evenly spread bindings of each step, filtered through the
  // step's predicate branches. Each step's flow is the sample's,
  // scaled to the estimated bindings of the step before.
  std::vector<const Node*> sample;
  double parents = 0;
  for (const xdm::Item& it : context) {
    if (!it.IsNode()) continue;
    parents += 1;
    if (sample.size() < kSamples) sample.push_back(it.node());
  }
  Units u;
  u.sc = parents * Log2(parents);  // context sort
  u.tj = u.sc;
  std::vector<const Node*> bound;
  for (const PatternNode* q = tp_.root.get(); q != nullptr;
       q = q->next.get()) {
    const double stream = StepOf(*q).stream;
    Flow f;
    f.parents = parents;
    bound.clear();
    for (const Node* n : sample) {
      const Flow one = From(n, *q, &bound);
      f.visits += one.visits;
      f.scanned += one.scanned;
      f.hits += one.hits;
    }
    const double scale =
        sample.empty() ? 0 : parents / static_cast<double>(sample.size());
    f.visits *= scale;
    f.scanned *= scale;
    f.hits = std::min(f.hits * scale, stream);  // distinct bindings

    u.nl += f.visits;
    u.sc += f.parents * Log2(stream);
    if (q->axis == Axis::kDescendant) {
      u.sc += std::min(f.scanned, stream);  // covered contexts are pruned
    } else {
      // Child steps scan each parent's whole window and sort the output.
      u.sc += f.scanned + f.hits * Log2(f.hits);
    }
    u.tj += TwigStep(*q, f);
    // Predicate branches: probed per binding by NL and SC, joined as
    // sets by TJ; the sampled bindings that survive them go on.
    std::vector<const Node*> kept;
    for (const Node* n : bound) {
      bool ok = true;
      for (const PatternNodePtr& p : q->predicates) {
        ok = ok && From(n, *p, nullptr).hits > 0;
      }
      if (ok) kept.push_back(n);
    }
    for (const PatternNodePtr& p : q->predicates) {
      const Units probe = Probe(*p);
      u.nl += f.hits * probe.nl;
      u.nl_probes += f.hits * probe.nl_probes;
      u.sc += f.hits * probe.sc;
      u.sc_probes += f.hits * probe.sc_probes;
      u.tj += TwigUnits(*p, StepFlow(*p, f.hits)) + f.hits;
    }
    if (!bound.empty()) {
      f.hits *= static_cast<double>(kept.size()) /
                static_cast<double>(bound.size());
    }
    sample.clear();
    const size_t stride = std::max<size_t>(1, kept.size() / kSamples);
    for (size_t i = 0; i < kept.size() && sample.size() < kSamples;
         i += stride) {
      sample.push_back(kept[i]);
    }
    parents = f.hits;
  }
  // NL sorts its rows; TJ's final top-down pass walks the main path once.
  u.nl += parents * Log2(parents);
  u.tj += parents * tp_.StepCount();
  return u;
}

double PatternCost::Estimate(const xdm::Sequence& context,
                             PatternAlgo algo) const {
  if (tp_.root == nullptr || ShapeOf(context).doc == nullptr) return 0;
  const Units u = MainPath(context);
  const auto ns = [](const Calibration& c, double units, double probes) {
    return c.fixed_ns + c.ns_per_unit * units + c.ns_per_probe * probes;
  };
  const double nl = ns(kNl, u.nl, u.nl_probes);
  switch (algo) {
    case PatternAlgo::kNLJoin:
      return nl;
    case PatternAlgo::kStaircase:
    case PatternAlgo::kShredded:  // the staircase join over a table
      return sc_native_ ? ns(kSc, u.sc, u.sc_probes) : nl;
    case PatternAlgo::kTwig:
      return tj_native_ ? ns(kTj, u.tj, 0) : nl;
    default:  // never picked, so never calibrated
      return std::numeric_limits<double>::infinity();
  }
}

PatternAlgo PatternCost::Choose(const xdm::Sequence& context) const {
  CountCostEstimate();
  if (!sc_native_) return PatternAlgo::kNLJoin;  // SC and TJ delegate
  PatternAlgo best = PatternAlgo::kNLJoin;
  double best_ns = Estimate(context, PatternAlgo::kNLJoin);
  for (PatternAlgo algo : {PatternAlgo::kStaircase, PatternAlgo::kTwig}) {
    if (algo == PatternAlgo::kTwig && !tj_native_) continue;
    const double ns = Estimate(context, algo);
    if (ns < best_ns) {
      best_ns = ns;
      best = algo;
    }
  }
  return best;
}

size_t AlgoChooser::ShapeKeyHash::operator()(const ShapeKey& k) const {
  size_t h = std::hash<const void*>()(k.doc);
  h = h * 31 + static_cast<size_t>(k.depth);
  h = h * 31 + static_cast<size_t>(k.size_class);
  return h * 31 + static_cast<size_t>(k.window_class);
}

PatternAlgo AlgoChooser::Choose(const xdm::Sequence& context) {
  const ContextShape shape = ShapeOf(context);
  // Any algorithm is right for a context without nodes (an empty result,
  // or the non-node TypeError every algorithm raises alike).
  if (shape.doc == nullptr) return PatternAlgo::kNLJoin;
  const ShapeKey key{
      shape.doc, shape.min_depth,
      static_cast<int>(std::bit_width(static_cast<uint64_t>(shape.size))),
      static_cast<int>(std::bit_width(static_cast<uint64_t>(shape.window)))};
  // Consecutive rows mostly share a shape: check the last one first.
  if (!memo_.empty() && key == last_key_) return last_algo_;
  last_key_ = key;
  auto it = memo_.find(key);
  if (it != memo_.end()) return last_algo_ = it->second;
  const PatternCost* cost = nullptr;
  for (const auto& [doc, c] : costs_) {
    if (doc == shape.doc) cost = c.get();
  }
  if (cost == nullptr) {
    costs_.emplace_back(shape.doc,
                        std::make_unique<PatternCost>(tp_, *shape.doc));
    cost = costs_.back().second.get();
  }
  last_algo_ = cost->Choose(context);
  memo_.emplace(key, last_algo_);
  return last_algo_;
}

double EstimateCost(const pattern::TreePattern& tp,
                    const xdm::Sequence& context, PatternAlgo algo) {
  const ContextShape shape = ShapeOf(context);
  if (tp.root == nullptr || shape.doc == nullptr) return 0;
  return PatternCost(tp, *shape.doc).Estimate(context, algo);
}

PatternAlgo ChooseAlgorithm(const pattern::TreePattern& tp,
                            const xdm::Sequence& context) {
  return AlgoChooser(tp).Choose(context);
}

}  // namespace xqtp::exec
