// Shared tree-pattern machinery: the algorithm dispatch behind
// TupleTreePattern (EvalPattern), the lexical row order every algorithm
// finalizes into, and the governance boundary — a cooperative governor
// check guards every pattern evaluation, and the
// individual algorithms poll on a stride inside their inner loops
// (GovernorTicker), so a deadline or external cancel interrupts even one
// huge pattern operator mid-scan instead of waiting for it to finish.
#include "exec/pattern_eval.h"

#include <algorithm>

#include "common/exec_stats.h"
#include "common/fault_injection.h"
#include "exec/cost_model.h"
#include "exec/governor.h"
#include "storage/node_table.h"
#include "xml/document.h"

namespace xqtp::exec {

using pattern::TreePattern;

const char* PatternAlgoName(PatternAlgo algo) {
  switch (algo) {
    case PatternAlgo::kNLJoin:
      return "NLJoin";
    case PatternAlgo::kStaircase:
      return "SCJoin";
    case PatternAlgo::kTwig:
      return "TwigJoin";
    case PatternAlgo::kStream:
      return "Stream";
    case PatternAlgo::kTwigStack:
      return "TwigStack";
    case PatternAlgo::kShredded:
      return "Shredded";
    case PatternAlgo::kCostBased:
      return "CostBased";
  }
  return "?";
}

namespace {

/// The lexical row order of Section 4.1 (see FinalizeRows).
bool RowLexLess(const BindingRow& a, const BindingRow& b) {
  size_t n = std::min(a.fields.size(), b.fields.size());
  for (size_t i = 0; i < n; ++i) {
    const xml::Node* na = a.fields[i].second;
    const xml::Node* nb = b.fields[i].second;
    if (na != nb) return xml::DocOrderLess(na, nb);
  }
  return a.fields.size() < b.fields.size();
}

}  // namespace

void FinalizeRows(std::vector<BindingRow>* rows) {
  std::sort(rows->begin(), rows->end(), RowLexLess);
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

Result<std::vector<BindingRow>> EvalPattern(const TreePattern& tp,
                                            const xdm::Sequence& context,
                                            PatternAlgo algo) {
  CountPatternEval();
  if (algo == PatternAlgo::kCostBased) algo = ChooseAlgorithm(tp, context);
  // Every pattern evaluation crosses a governance boundary here; the
  // algorithms' inner loops add strided polls on top.
  XQTP_RETURN_NOT_OK(GovernorPoll());
  XQTP_FAULT_POINT("exec.pattern.dispatch");
  switch (algo) {
    case PatternAlgo::kNLJoin:
      return EvalPatternNL(tp, context);
    case PatternAlgo::kStaircase:
      return EvalPatternStaircase(tp, context);
    case PatternAlgo::kTwig:
      return EvalPatternTwig(tp, context);
    case PatternAlgo::kStream:
      return EvalPatternStream(tp, context);
    case PatternAlgo::kTwigStack:
      return EvalPatternTwigStack(tp, context);
    case PatternAlgo::kShredded:
      return storage::EvalPatternShredded(tp, context);
    case PatternAlgo::kCostBased:
      break;  // resolved above; the cost model never returns itself
  }
  return Status::Internal("unknown pattern algorithm");
}

}  // namespace xqtp::exec
