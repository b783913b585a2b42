// Evaluation of algebra plans. Tuple operators execute batch-at-a-time —
// a pull pipeline of columnar TupleBatches (exec/tuple.h) streaming
// between pipeline-able operators; this is the one physical execution
// path for tuple plans (the independent reference is the Core
// interpreter, exec/core_interp.h). TupleTreePattern dispatches to the
// configured physical algorithm, by default the cost model's per-operator
// choice among NLJoin / Staircase / Twig.
#ifndef XQTP_EXEC_EVALUATOR_H_
#define XQTP_EXEC_EVALUATOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "algebra/ops.h"
#include "analysis/verify_scope.h"
#include "common/status.h"
#include "core/ast.h"
#include "exec/governor.h"
#include "exec/pattern_eval.h"
#include "exec/tuple.h"

namespace xqtp::exec {

struct EvalOptions {
  /// Physical algorithm for TupleTreePattern operators. The default,
  /// kCostBased, lets the calibrated cost model (exec/cost_model.h) pick
  /// NLJoin, SCJoin or TwigJoin per operator and context shape; results
  /// are identical under every algorithm.
  PatternAlgo algo = PatternAlgo::kCostBased;
  /// Worker threads for TupleTreePattern evaluation: 1 (default) = the
  /// sequential path, 0 = one per hardware thread, N = a fixed per-query
  /// pool of N (exec/parallel.h) over which a pattern operator's input
  /// tuples are partitioned. Parallelism is opt-in: on the e2e serving
  /// benchmark the sequential path was faster. The pool is created
  /// lazily on the first pattern evaluation that actually morselizes.
  /// Results are identical at any thread count.
  int threads = 1;
  /// Minimum number of input tuples before a pattern operator's
  /// evaluation is morselized.
  int parallel_min_fanout = 256;
  /// Assert the optimizer's stamped property claims (algebra::Op::props)
  /// on every evaluated sequence: cardinality bounds, document order,
  /// distinctness. A violation surfaces as Status::Internal tagged
  /// "[plan props]" — an inference bug becomes a failing test, not a
  /// silently wrong plan. On by default in Debug/sanitizer builds.
  bool check_inferred_props = analysis::kVerifyByDefault;
  /// Monotonic wall-clock deadline. When set, governor checks compare
  /// steady_clock::now() against it and the evaluation returns
  /// kDeadlineExceeded once it expires (cooperatively — the verdict
  /// surfaces at the next operator boundary / inner-loop stride).
  std::optional<std::chrono::steady_clock::time_point> deadline = {};
  /// Budget (bytes) for governor-accounted materialized intermediates;
  /// 0 = unlimited. Exceeding it returns kResourceExhausted. Accounting
  /// is approximate (sizeof-based, per materialized sequence/tuple batch;
  /// see DESIGN.md "Resource governance").
  int64_t memory_budget_bytes = 0;
  /// External cancellation token, shared with whoever may cancel. A
  /// Cancel() from any thread makes the evaluation return kCancelled at
  /// the next governor check. Null = not cancellable.
  std::shared_ptr<CancelToken> cancel_token = {};
  /// Target rows per TupleBatch (minimum 1). Tuple operators stream
  /// batches of about this many rows: Select filters via selection
  /// vectors, MapToItem reads the field column directly, patterns
  /// broadcast single-tuple inputs. Small values force multi-batch
  /// streams — the cross-check oracle and unit tests use them to exercise
  /// batch boundaries.
  int tuple_batch_rows = 1024;

  /// True when any governor limit is set (a QueryGovernor is installed
  /// for the evaluation only in that case — otherwise checks are free).
  bool HasGovernorLimits() const {
    return deadline.has_value() || memory_budget_bytes > 0 ||
           cancel_token != nullptr;
  }
};

/// Values for the query's global variables.
using Bindings = std::unordered_map<core::VarId, xdm::Sequence>;

/// Evaluates a compiled (item) plan against global bindings.
[[nodiscard]]
Result<xdm::Sequence> Evaluate(const algebra::Op& plan,
                               const core::VarTable& vars,
                               const Bindings& bindings,
                               const EvalOptions& opts = {});

}  // namespace xqtp::exec

#endif  // XQTP_EXEC_EVALUATOR_H_
