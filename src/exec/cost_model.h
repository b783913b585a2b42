// Cost-based tree-pattern algorithm selection — the paper's concluding
// future-work item: "Clearly, an accurate cost model is needed."
//
// The model estimates, per algorithm, the work of evaluating a pattern
// over a given context — node visits for the nested-loop join, index
// entries and binary searches for the staircase join, windowed stream
// entries and hash probes for the holistic twig join — by walking the
// pattern on a sample: a few context nodes, then a few bindings of each
// step, counted exactly with the per-tag streams and the pre/post region
// encoding. Calibrated constants (a fixed cost per call, a cost per unit
// and per predicate probe; see cost_model.cc) turn the work into
// nanoseconds. It reproduces the paper's Section 5 decision heuristics:
//   - index algorithms (SC/TJ) win on rooted patterns,
//   - the nested-loop join wins on highly selective contexts (Section 5.3),
//   - the holistic twig join overtakes staircase join as patterns branch.
//
// The per-step statistics are read once per (pattern, document) —
// PatternCost — and the evaluator resolves kCostBased once per operator
// and context shape within one execution (AlgoChooser), so a per-row
// operator pays a hash lookup per row, not an estimate.
#ifndef XQTP_EXEC_COST_MODEL_H_
#define XQTP_EXEC_COST_MODEL_H_

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/pattern_eval.h"
#include "xml/document.h"

namespace xqtp::exec {

/// Per-document statistics used by the cost model (an alias of the
/// lazily-computed xml::DocumentStats — cached on the document itself).
using DocStats = xml::DocumentStats;

/// Returns the cached statistics of `doc`.
const DocStats& StatsFor(const xml::Document& doc);

/// A pattern's cost inputs on one document: per step, the size of its
/// index stream and — sampled on a few nodes of the parent step's stream
/// — what one parent node visits, scans and binds of it. Built once per
/// (pattern, document); an estimate then reads only a few context nodes.
class PatternCost {
 public:
  PatternCost(const pattern::TreePattern& tp, const xml::Document& doc);

  /// Estimated time (ns) of evaluating the pattern over `context` with
  /// `algo`: kNLJoin, kStaircase (kShredded: its table form) or kTwig;
  /// infinity for the algorithms the model never picks. 0 for a context
  /// without nodes.
  double Estimate(const xdm::Sequence& context, PatternAlgo algo) const;

  /// The cheapest of NL / SC / TJ for `context`. Counts one
  /// ExecStats::cost_estimates.
  PatternAlgo Choose(const xdm::Sequence& context) const;

 private:
  /// One step's expected work and output for a set of parent bindings.
  struct Flow {
    double parents = 0;  ///< parent bindings (context nodes for the root)
    double visits = 0;   ///< nodes a navigational pass walks
    double scanned = 0;  ///< index entries below the parents
    double hits = 0;     ///< bindings of the step
  };
  struct Step {
    /// The step test's index stream; null for text() and node().
    const std::vector<const xml::Node*>* index = nullptr;
    double stream = 0;  ///< nodes matching the step's test
    /// What one node of the parent step sees of this step (sampled from
    /// the parent's stream; unused for the root step).
    Flow per_parent;
  };
  /// Estimated work units of one evaluation, per algorithm.
  struct Units {
    double nl = 0;  ///< nodes visited by cursor navigation
    double sc = 0;  ///< index entries scanned plus binary-search steps
    double tj = 0;  ///< windowed stream entries plus hash-join probes
    /// Per-binding existence probes of predicate branches (NL and SC
    /// pay a call's allocations for each).
    double nl_probes = 0;
    double sc_probes = 0;
  };
  const Step& StepOf(const pattern::PatternNode& q) const {
    return steps_.at(&q);
  }
  const std::vector<const xml::Node*>* IndexStream(
      const pattern::PatternNode& q) const;
  void AddSteps(const pattern::PatternNode& q,
                const pattern::PatternNode* parent);
  /// What a pass of step `q` from node `n` visits, scans and binds;
  /// appends a few of the bound nodes to `*bound` when non-null.
  Flow From(const xml::Node* n, const pattern::PatternNode& q,
            std::vector<const xml::Node*>* bound) const;
  Flow StepFlow(const pattern::PatternNode& q, double parents) const;
  Units Probe(const pattern::PatternNode& p) const;
  double TwigStep(const pattern::PatternNode& q, const Flow& f) const;
  double TwigUnits(const pattern::PatternNode& q, const Flow& f) const;
  Units MainPath(const xdm::Sequence& context) const;

  const pattern::TreePattern& tp_;
  const xml::Document& doc_;
  double doc_nodes_;  ///< arena size: the unit of the region encoding
  std::unordered_map<const pattern::PatternNode*, Step> steps_;
  /// The set-at-a-time algorithms handle only single-output patterns
  /// (and TJ neither positions nor non-pattern axes); where they cannot,
  /// they delegate to NL, and so does the choice.
  bool sc_native_ = false;
  bool tj_native_ = false;
};

/// Resolves kCostBased for one pattern operator within one execution:
/// the stream sizes are read once per document, and the choice is
/// memoized per context shape (document, depth, size class), so a
/// per-row operator over N rows consults the estimator once per shape,
/// not N times. Not thread-safe: one per operator and thread.
class AlgoChooser {
 public:
  explicit AlgoChooser(const pattern::TreePattern& tp) : tp_(tp) {}

  /// The algorithm to run for `context` (never kCostBased).
  PatternAlgo Choose(const xdm::Sequence& context);

 private:
  struct ShapeKey {
    const xml::Document* doc = nullptr;
    int depth = 0;
    int size_class = 0;    ///< bit width of the context size
    int window_class = 0;  ///< bit width of the context window
    bool operator==(const ShapeKey& o) const {
      return doc == o.doc && depth == o.depth &&
             size_class == o.size_class && window_class == o.window_class;
    }
  };
  struct ShapeKeyHash {
    size_t operator()(const ShapeKey& k) const;
  };

  const pattern::TreePattern& tp_;
  std::vector<std::pair<const xml::Document*, std::unique_ptr<PatternCost>>>
      costs_;
  std::unordered_map<ShapeKey, PatternAlgo, ShapeKeyHash> memo_;
  ShapeKey last_key_{};
  PatternAlgo last_algo_ = PatternAlgo::kNLJoin;
};

/// Estimated time (ns) of evaluating `tp` over the given contexts with
/// `algo` — a one-shot PatternCost.
double EstimateCost(const pattern::TreePattern& tp,
                    const xdm::Sequence& context, PatternAlgo algo);

/// The cheapest algorithm for this pattern/context per the model — a
/// one-shot PatternCost (evaluators memoize through AlgoChooser).
PatternAlgo ChooseAlgorithm(const pattern::TreePattern& tp,
                            const xdm::Sequence& context);

}  // namespace xqtp::exec

#endif  // XQTP_EXEC_COST_MODEL_H_
