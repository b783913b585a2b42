// The physical tree-pattern algorithms behind TupleTreePattern. All three
// produce the operator semantics of Section 4.1: the distinct projected
// bindings of the pattern over the context nodes, in root-to-leaf lexical
// order (which coincides with XPath document order when the single output
// is at the extraction point).
//
//  - kNLJoin:    nested-loop navigation over first-child / next-sibling
//                cursors; touches only the reachable part of the tree.
//  - kStaircase: Staircase-join [Grust & van Keulen]: per-step scans of the
//                per-tag index with context pruning and skipping.
//  - kTwig:      holistic twig join [Bruno, Koudas & Srivastava]: one
//                merge pass per pattern edge over document-ordered tag
//                streams (bottom-up match-set computation, then a top-down
//                filtering pass).
//  - kStream:    streaming evaluation (a future-work item of the paper):
//                one pre-order scan of the context region with match-
//                instance stacks and buffered predicate resolution.
//
// The Staircase and Twig implementations handle single-output patterns
// (the only shape the optimizer emits); multi-output patterns fall back to
// the nested-loop algorithm, which enumerates full bindings.
#ifndef XQTP_EXEC_PATTERN_EVAL_H_
#define XQTP_EXEC_PATTERN_EVAL_H_

#include <vector>

#include "common/status.h"
#include "pattern/tree_pattern.h"
#include "xdm/item.h"

namespace xqtp::exec {

/// The physical algorithm used to evaluate TupleTreePattern operators.
enum class PatternAlgo : uint8_t {
  kNLJoin,
  kStaircase,
  kTwig,
  kStream,
  kTwigStack,  ///< the classic stack-based TwigStack (twig variant #2)
  kShredded,   ///< relational staircase join over the shredded node table
               ///< (storage/node_table.h — the XPath accelerator encoding)
  kCostBased,  ///< per-evaluation choice by the cost model (cost_model.h)
};

const char* PatternAlgoName(PatternAlgo algo);

/// One projected binding: (output field, bound node) pairs in root-to-leaf
/// lexical order of the pattern's annotated steps.
struct BindingRow {
  std::vector<std::pair<Symbol, const xml::Node*>> fields;

  bool operator==(const BindingRow& other) const {
    return fields == other.fields;
  }
};

/// Evaluates `tp` over the given context nodes with the chosen algorithm
/// (kCostBased resolves through the cost model first). `context` items
/// must all be nodes. Returns distinct rows in lexical order. Counts one
/// pattern evaluation and crosses one governance boundary per call;
/// parallelism lives a level up, in the tuple-level morsel driver
/// (exec/parallel.h), which calls this once per input tuple.
[[nodiscard]]
Result<std::vector<BindingRow>> EvalPattern(const pattern::TreePattern& tp,
                                            const xdm::Sequence& context,
                                            PatternAlgo algo);

/// Shared finalization: sorts rows in the lexical order of Section 4.1
/// (document order of the bound nodes, field by field in root-to-leaf
/// order, shorter rows first on a tie) and removes duplicates. Exposed
/// for the algorithm implementations and tests.
void FinalizeRows(std::vector<BindingRow>* rows);

// Individual algorithm entry points (used directly by unit tests).
[[nodiscard]]
Result<std::vector<BindingRow>> EvalPatternNL(const pattern::TreePattern& tp,
                                              const xdm::Sequence& context);
[[nodiscard]]
Result<std::vector<BindingRow>> EvalPatternStaircase(
    const pattern::TreePattern& tp, const xdm::Sequence& context);
[[nodiscard]]
Result<std::vector<BindingRow>> EvalPatternTwig(const pattern::TreePattern& tp,
                                                const xdm::Sequence& context);
[[nodiscard]]
Result<std::vector<BindingRow>> EvalPatternStream(
    const pattern::TreePattern& tp, const xdm::Sequence& context);
[[nodiscard]]
Result<std::vector<BindingRow>> EvalPatternTwigStack(
    const pattern::TreePattern& tp, const xdm::Sequence& context);

}  // namespace xqtp::exec

#endif  // XQTP_EXEC_PATTERN_EVAL_H_
