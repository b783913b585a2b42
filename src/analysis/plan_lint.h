// Plan lint: read-only diagnostics over optimized algebra plans, driven
// by the property inference of analysis/plan_props.h. The linter reports
// statically-detectable pathologies that the property-justified rewrites
// could not (or were configured not to) remove:
//
//   redundant-ddo   a Ddo whose input is proven ordered and
//                   duplicate-free is still present in the plan
//   dead-field      a tuple field is defined (MapFromItem binding or
//                   pattern annotation) but never read downstream
//   const-select    a Select whose predicate is a literal (keeps or
//                   drops every tuple)
//   card-zero       an operator whose output is proven empty
//
// Lint never fails compilation: the engine runs it inside a VerifyScope
// after optimization (debug builds by default) and surfaces the findings
// through CompiledQuery / Explain.
#ifndef XQTP_ANALYSIS_PLAN_LINT_H_
#define XQTP_ANALYSIS_PLAN_LINT_H_

#include <string>
#include <vector>

#include "algebra/ops.h"

namespace xqtp::analysis {

struct LintFinding {
  std::string rule;    ///< stable rule id, e.g. "redundant-ddo"
  std::string detail;  ///< human-readable one-liner
};

struct PlanLintOptions {
  /// Used to render field names in findings; "#<id>" without it.
  const StringInterner* interner = nullptr;
};

/// Infers plan properties and returns every finding, in plan walk order.
std::vector<LintFinding> LintPlan(const algebra::Op& plan,
                                  const PlanLintOptions& opts = {});

}  // namespace xqtp::analysis

#endif  // XQTP_ANALYSIS_PLAN_LINT_H_
