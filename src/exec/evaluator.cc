#include "exec/evaluator.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_set>

#include "analysis/plan_props.h"
#include "common/exec_stats.h"
#include "common/fault_injection.h"
#include "exec/cost_model.h"
#include "exec/fn_lib.h"
#include "exec/parallel.h"
#include "xdm/sequence_ops.h"
#include "xml/document.h"

namespace xqtp::exec {

namespace {

using algebra::Op;
using algebra::OpKind;
using algebra::OpPtr;
using xdm::Item;
using xdm::Sequence;

/// Approximate materialization cost of a sequence for the governor's
/// byte accountant. Items are counted at their in-vector size; string
/// payloads and node identity are shared and not re-counted. The point is
/// trapping runaway *cardinality* (cross products), not exact heap audit.
int64_t ApproxBytes(const Sequence& s) {
  return static_cast<int64_t>(s.size() * sizeof(Item));
}

/// Downstream consumer of a streamed tuple-plan pipeline. Producers call
/// it once per non-empty TupleBatch, in row order; an error Status stops
/// the stream.
using BatchSink = std::function<Status(TupleBatch&&)>;

class Evaluator {
 public:
  Evaluator(const core::VarTable& vars, const Bindings& bindings,
            const EvalOptions& opts)
      : vars_(vars), bindings_(bindings), opts_(opts) {
    int threads = ThreadPool::ResolveThreads(opts.threads);
    if (threads > 1) {
      par_ = std::make_unique<ParallelContext>();
      par_->threads = threads;
      par_->min_fanout = std::max(1, opts.parallel_min_fanout);
      // The per-query pool is created on the first evaluation that
      // actually morselizes — small queries never pay the thread spawn —
      // and at the driver's clamped width, so a fan-out that feeds 3
      // threads never spawns 8 (the bench_parallel scaling cliff).
      par_->pool = [this](int desired) {
        if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(desired);
        return pool_.get();
      };
      // Workers re-install the query's governor per morsel; the caller
      // (Evaluate) has already installed it on this thread.
      par_->governor = CurrentGovernor();
    }
  }

  Result<Sequence> Run(const Op& plan) {
    return EvalItem(plan, RowView(), nullptr);
  }

 private:
  /// Evaluates an item plan. `tuple` is the current tuple context for
  /// dependent plans (IN#field / IN as tuple) — a RowView over one row of
  /// a TupleBatch, invalid outside any tuple plan; `item` is the current
  /// item for MapFromItem dependents (IN as item). When the optimizer
  /// stamped property claims on the operator, debug builds assert them
  /// against the concrete output sequence.
  Result<Sequence> EvalItem(const Op& op, RowView tuple, const Item* item) {
    if (!opts_.check_inferred_props || !op.props.Any()) {
      return EvalItemInner(op, tuple, item);
    }
    XQTP_ASSIGN_OR_RETURN(Sequence out, EvalItemInner(op, tuple, item));
    XQTP_RETURN_NOT_OK(CheckClaims(op.props, out));
    return out;
  }

  /// Asserts one operator's stamped claims on one evaluated sequence.
  static Status CheckClaims(const algebra::PropsClaims& c,
                            const Sequence& out) {
    const int64_t n = static_cast<int64_t>(out.size());
    if (n < c.card_lo || (c.card_hi >= 0 && n > c.card_hi)) {
      return Status::Internal(
          "[plan props] violated claim [claim-card]: sequence length " +
          std::to_string(n) + " outside inferred [" +
          std::to_string(c.card_lo) + ", " +
          (c.card_hi >= 0 ? std::to_string(c.card_hi) : "*") + "]");
    }
    if (c.ordered || c.dup_free) {
      // Order claims are only stamped on sequences inferred all-node (or
      // at most one item), so a non-node under the claim is itself an
      // inference bug.
      for (size_t i = 0; i + 1 < out.size(); ++i) {
        if (!out[i].IsNode() || !out[i + 1].IsNode()) {
          return Status::Internal(
              "[plan props] violated claim [claim-nodes]: atomic item in a "
              "sequence claimed ordered/duplicate-free");
        }
        const xml::Node* a = out[i].node();
        const xml::Node* b = out[i + 1].node();
        if (c.ordered && xml::DocOrderLess(b, a)) {
          return Status::Internal(
              "[plan props] violated claim [claim-ordered]: adjacent items "
              "out of document order");
        }
        if (c.ordered && c.dup_free && a == b) {
          return Status::Internal(
              "[plan props] violated claim [claim-dupfree]: adjacent "
              "duplicate nodes");
        }
      }
      if (c.dup_free && !c.ordered) {
        std::unordered_set<const xml::Node*> seen;
        for (const Item& it : out) {
          if (it.IsNode() && !seen.insert(it.node()).second) {
            return Status::Internal(
                "[plan props] violated claim [claim-dupfree]: duplicate "
                "node");
          }
        }
      }
    }
    return Status::OK();
  }

  Result<Sequence> EvalItemInner(const Op& op, RowView tuple,
                                 const Item* item) {
    // The operator boundary is the evaluator's cooperative check cadence,
    // strided: a full governor check (cancel + deadline + budget) every
    // 32nd operator evaluation. Unstrided, the check's clock read and
    // atomics cost ~10% on cheap per-tuple plans (bench_governor); the
    // stride bounds cancellation latency by 32 operator evaluations while
    // keeping the overhead under the 2% target. Plain member counter:
    // the evaluator runs on the coordinating thread only (morsel workers
    // poll through their own per-morsel GovernorTickers).
    if ((governor_tick_++ & 31u) == 0) {
      XQTP_RETURN_NOT_OK(GovernorPoll());
    }
    switch (op.kind) {
      case OpKind::kConst:
        return Sequence{op.literal};
      case OpKind::kGlobalVar: {
        auto it = bindings_.find(op.var);
        if (it == bindings_.end()) {
          return Status::InvalidArgument("unbound query global $" +
                                         vars_.NameOf(op.var));
        }
        return it->second;
      }
      case OpKind::kScopedVar: {
        auto it = scoped_.find(op.var);
        if (it == scoped_.end()) {
          return Status::Internal("unbound scoped variable $" +
                                  vars_.NameOf(op.var));
        }
        return it->second;
      }
      case OpKind::kInputItem:
        if (item == nullptr) {
          return Status::Internal("IN (item) used outside a dependent plan");
        }
        return Sequence{*item};
      case OpKind::kFieldAccess: {
        if (!tuple.valid()) {
          return Status::Internal("IN#field used outside a tuple context");
        }
        const Sequence* v = tuple.Get(op.field);
        if (v == nullptr) return Sequence{};
        return *v;
      }
      case OpKind::kTreeJoin: {
        XQTP_ASSIGN_OR_RETURN(Sequence ctx,
                              EvalItem(*op.inputs[0], tuple, item));
        Sequence out;
        out.reserve(ctx.size());
        for (const Item& it : ctx) {
          if (!it.IsNode()) {
            return Status::TypeError("path step applied to an atomic value");
          }
          xdm::EvalAxisStep(it.node(), op.axis, op.test, &out);
        }
        return out;
      }
      case OpKind::kDdo: {
        XQTP_ASSIGN_OR_RETURN(Sequence in,
                              EvalItem(*op.inputs[0], tuple, item));
        // Plans stack a Ddo on every path step. Two escapes, cheapest
        // first: the optimizer's stamped claims on the INPUT operator
        // prove the sort is the identity (plan_props inference — skips
        // even the O(n) probe), else the runtime probe catches inputs
        // that happen to be sorted (single-output patterns emit such
        // sequences by construction).
        if (analysis::ClaimsImplyDdoIdentity(op.inputs[0]->props)) return in;
        if (xdm::IsDistinctDocOrdered(in)) return in;
        return xdm::DistinctDocOrder(std::move(in));
      }
      case OpKind::kMapToItem: {
        Sequence out;
        ScopedMemoryCharge mem;
        const Op& dep = *op.dep;
        // Satellite fast path: a dependent plan that is just IN#field
        // needs no per-row evaluation at all — resolve the field symbol
        // ONCE per batch and concatenate the column's sequences. (Skipped
        // when claim checking wants to see the dep's output per row.)
        const bool field_fast =
            dep.kind == OpKind::kFieldAccess &&
            !(opts_.check_inferred_props && dep.props.Any());
        XQTP_RETURN_NOT_OK(EvalTupleBatches(
            *op.inputs[0], tuple, [&](TupleBatch&& b) -> Status {
              if (field_fast) {
                const TupleBatch::BoundColumn* col = b.Find(dep.field);
                if (col == nullptr) return Status::OK();  // absent = ()
                int64_t bytes = 0;
                for (size_t i = 0; i < b.rows(); ++i) {
                  const Sequence& v = b.Value(*col, i);
                  bytes += ApproxBytes(v);
                  out.insert(out.end(), v.begin(), v.end());
                }
                return mem.Grow(bytes);
              }
              for (size_t i = 0; i < b.rows(); ++i) {
                XQTP_ASSIGN_OR_RETURN(
                    Sequence part, EvalItem(dep, RowView(&b, i), nullptr));
                XQTP_RETURN_NOT_OK(mem.Grow(ApproxBytes(part)));
                out.insert(out.end(), part.begin(), part.end());
              }
              return Status::OK();
            }));
        return out;
      }
      case OpKind::kFnCall:
        return EvalFnCall(op, tuple, item);
      case OpKind::kCompare: {
        XQTP_ASSIGN_OR_RETURN(Sequence l, EvalItem(*op.inputs[0], tuple, item));
        XQTP_ASSIGN_OR_RETURN(Sequence r, EvalItem(*op.inputs[1], tuple, item));
        XQTP_ASSIGN_OR_RETURN(bool b, xdm::GeneralCompare(op.cmp_op, l, r));
        return Sequence{Item(b)};
      }
      case OpKind::kArith: {
        XQTP_ASSIGN_OR_RETURN(Sequence l, EvalItem(*op.inputs[0], tuple, item));
        XQTP_ASSIGN_OR_RETURN(Sequence r, EvalItem(*op.inputs[1], tuple, item));
        return xdm::EvalArith(op.arith_op, l, r);
      }
      case OpKind::kAnd:
      case OpKind::kOr: {
        XQTP_ASSIGN_OR_RETURN(Sequence l, EvalItem(*op.inputs[0], tuple, item));
        XQTP_ASSIGN_OR_RETURN(bool lb, xdm::EffectiveBooleanValue(l));
        if (op.kind == OpKind::kAnd && !lb) return Sequence{Item(false)};
        if (op.kind == OpKind::kOr && lb) return Sequence{Item(true)};
        XQTP_ASSIGN_OR_RETURN(Sequence r, EvalItem(*op.inputs[1], tuple, item));
        XQTP_ASSIGN_OR_RETURN(bool rb, xdm::EffectiveBooleanValue(r));
        return Sequence{Item(rb)};
      }
      case OpKind::kSequence: {
        Sequence out;
        ScopedMemoryCharge mem;
        for (const OpPtr& in : op.inputs) {
          XQTP_ASSIGN_OR_RETURN(Sequence part, EvalItem(*in, tuple, item));
          XQTP_RETURN_NOT_OK(mem.Grow(ApproxBytes(part)));
          out.insert(out.end(), part.begin(), part.end());
        }
        return out;
      }
      case OpKind::kIf: {
        XQTP_ASSIGN_OR_RETURN(Sequence c, EvalItem(*op.inputs[0], tuple, item));
        XQTP_ASSIGN_OR_RETURN(bool cb, xdm::EffectiveBooleanValue(c));
        return EvalItem(*op.inputs[cb ? 1 : 2], tuple, item);
      }
      case OpKind::kForEach: {
        XQTP_ASSIGN_OR_RETURN(Sequence seq,
                              EvalItem(*op.inputs[0], tuple, item));
        Sequence out;
        // The FLWOR loop is where cross products materialize: the charge
        // grows with the accumulated output, so a runaway join trips the
        // budget mid-loop instead of after exhausting the heap.
        ScopedMemoryCharge mem;
        for (size_t i = 0; i < seq.size(); ++i) {
          scoped_[op.var] = Sequence{seq[i]};
          if (op.pos_var != core::kNoVar) {
            scoped_[op.pos_var] =
                Sequence{Item(static_cast<int64_t>(i + 1))};
          }
          if (op.dep2 != nullptr) {
            XQTP_ASSIGN_OR_RETURN(Sequence cond,
                                  EvalItem(*op.dep2, tuple, item));
            XQTP_ASSIGN_OR_RETURN(bool keep,
                                  xdm::EffectiveBooleanValue(cond));
            if (!keep) continue;
          }
          XQTP_ASSIGN_OR_RETURN(Sequence part, EvalItem(*op.dep, tuple, item));
          XQTP_RETURN_NOT_OK(mem.Grow(ApproxBytes(part)));
          out.insert(out.end(), part.begin(), part.end());
        }
        scoped_.erase(op.var);
        if (op.pos_var != core::kNoVar) scoped_.erase(op.pos_var);
        return out;
      }
      case OpKind::kLetIn: {
        XQTP_ASSIGN_OR_RETURN(Sequence binding,
                              EvalItem(*op.inputs[0], tuple, item));
        scoped_[op.var] = std::move(binding);
        Result<Sequence> res = EvalItem(*op.dep, tuple, item);
        scoped_.erase(op.var);
        return res;
      }
      case OpKind::kTypeswitch: {
        XQTP_ASSIGN_OR_RETURN(Sequence input,
                              EvalItem(*op.inputs[0], tuple, item));
        bool numeric = input.size() == 1 && input[0].IsNumeric();
        core::VarId v = numeric ? op.var : op.pos_var;
        const Op& branch = numeric ? *op.dep : *op.dep2;
        scoped_[v] = std::move(input);
        Result<Sequence> res = EvalItem(branch, tuple, item);
        scoped_.erase(v);
        return res;
      }
      // Tuple plans are not item plans.
      case OpKind::kMapFromItem:
      case OpKind::kSelect:
      case OpKind::kTupleTreePattern:
      case OpKind::kInputTuple:
        return Status::Internal("tuple plan evaluated in item context");
    }
    return Status::Internal("unreachable operator kind");
  }

  Result<Sequence> EvalFnCall(const Op& op, RowView tuple, const Item* item) {
    XQTP_FAULT_POINT("exec.fn_call");
    std::vector<Sequence> args;
    args.reserve(op.inputs.size());
    for (const OpPtr& in : op.inputs) {
      XQTP_ASSIGN_OR_RETURN(Sequence a, EvalItem(*in, tuple, item));
      args.push_back(std::move(a));
    }
    return ApplyCoreFn(op.fn, args);
  }

  // ------------------------------------------------------------------
  // Columnar batch pipeline.

  /// Yields one batch downstream: counts it, gives the governor its
  /// per-BATCH poll, and charges the batch's bytes for the duration of
  /// the downstream processing. Empty batches are dropped here so kernels
  /// never see them.
  Status Emit(const BatchSink& sink, TupleBatch&& b) {
    if (b.rows() == 0) return Status::OK();
    CountBatch();
    XQTP_RETURN_NOT_OK(GovernorPoll());
    ScopedMemoryCharge mem;
    XQTP_RETURN_NOT_OK(mem.Grow(b.ApproxBytes()));
    return sink(std::move(b));
  }

  /// Evaluates a tuple plan as a stream of TupleBatches pushed into
  /// `sink` — no whole intermediate relation is materialized. `ambient`
  /// is the enclosing tuple context for plans rooted at IN (rule (a)
  /// rewrites); inside a batch kernel it is a view of the outer batch's
  /// current row.
  Status EvalTupleBatches(const Op& op, RowView ambient,
                          const BatchSink& sink) {
    switch (op.kind) {
      case OpKind::kInputTuple: {
        if (!ambient.valid()) {
          return Status::Internal("IN (tuple) used outside a tuple context");
        }
        // The ambient row becomes a shared-column selection of one —
        // the dominant dependent-plan case copies nothing.
        return Emit(sink, ambient.ToBatch());
      }
      case OpKind::kMapFromItem: {
        XQTP_ASSIGN_OR_RETURN(Sequence items,
                              EvalItem(*op.inputs[0], ambient, nullptr));
        const Op& dep = *op.dep;
        // The normalizer's MapFromItem dependents are almost always the
        // identity (IN as item): build the column straight from the
        // input items without a per-item plan walk.
        const bool identity =
            dep.kind == OpKind::kInputItem &&
            !(opts_.check_inferred_props && dep.props.Any());
        const size_t target =
            static_cast<size_t>(std::max(1, opts_.tuple_batch_rows));
        for (size_t begin = 0; begin < items.size(); begin += target) {
          const size_t end = std::min(items.size(), begin + target);
          TupleColumn col;
          col.field = op.field;
          col.values.reserve(end - begin);
          for (size_t i = begin; i < end; ++i) {
            if (identity) {
              col.values.push_back(Sequence{items[i]});
            } else {
              XQTP_ASSIGN_OR_RETURN(Sequence v,
                                    EvalItem(dep, ambient, &items[i]));
              col.values.push_back(std::move(v));
            }
          }
          TupleBatch b(end - begin);
          b.AddOwnedColumn(std::move(col));
          CountTuplesMaterialized(static_cast<int64_t>(end - begin));
          XQTP_RETURN_NOT_OK(Emit(sink, std::move(b)));
        }
        return Status::OK();
      }
      case OpKind::kSelect: {
        return EvalTupleBatches(
            *op.inputs[0], ambient, [&](TupleBatch&& in) -> Status {
              std::vector<uint32_t> keep;
              keep.reserve(in.rows());
              for (size_t i = 0; i < in.rows(); ++i) {
                XQTP_ASSIGN_OR_RETURN(
                    Sequence pred,
                    EvalItem(*op.dep, RowView(&in, i), nullptr));
                XQTP_ASSIGN_OR_RETURN(bool k,
                                      xdm::EffectiveBooleanValue(pred));
                if (k) keep.push_back(static_cast<uint32_t>(i));
              }
              if (keep.empty()) return Status::OK();
              // All rows kept: forward the batch itself. Otherwise yield
              // a selection view — columns shared, zero sequences copied.
              if (keep.size() == in.rows()) return Emit(sink, std::move(in));
              return Emit(sink, in.SelectRows(keep));
            });
      }
      case OpKind::kTupleTreePattern: {
        if (par_ != nullptr) {
          // The wide-input morselization decision needs the total row
          // count, so the pattern is a pipeline breaker when a parallel
          // context exists. Shared columns make the Append cheap.
          TupleBatch all;
          XQTP_RETURN_NOT_OK(EvalTupleBatches(
              *op.inputs[0], ambient, [&](TupleBatch&& b) -> Status {
                all.Append(std::move(b));
                return Status::OK();
              }));
          if (all.rows() >= static_cast<size_t>(par_->min_fanout)) {
            XQTP_ASSIGN_OR_RETURN(
                TupleBatch out,
                EvalPatternTuplesParallel(op.tp, all, opts_.algo, *par_));
            return Emit(sink, std::move(out));
          }
          return EvalPatternBatch(op, all, sink);
        }
        // No parallel context: stream batch-in, batch-out.
        return EvalTupleBatches(
            *op.inputs[0], ambient, [&](TupleBatch&& in) -> Status {
              return EvalPatternBatch(op, in, sink);
            });
      }
      default:
        return Status::Internal("item plan evaluated in tuple context");
    }
  }

  /// Sequential TupleTreePattern kernel over one input batch: the
  /// context field is resolved once per batch, each row's bindings land
  /// in a PatternBatchBuilder (single-row inputs broadcast their
  /// unmodified fields — zero replication for the dominant
  /// root-in-one-tuple plan).
  Status EvalPatternBatch(const Op& op, const TupleBatch& in,
                          const BatchSink& sink) {
    if (in.rows() == 0) return Status::OK();
    const TupleBatch::BoundColumn* ctx_col = in.Find(op.tp.input_field);
    if (ctx_col == nullptr) {
      return Status::Internal(
          "TupleTreePattern input tuple lacks the context field");
    }
    PatternBatchBuilder builder(in);
    ScopedMemoryCharge mem;
    AlgoChooser* chooser = ChooserFor(op);
    for (size_t i = 0; i < in.rows(); ++i) {
      const Sequence& ctx = in.Value(*ctx_col, i);
      XQTP_ASSIGN_OR_RETURN(
          std::vector<BindingRow> rows,
          EvalPattern(op.tp, ctx,
                      chooser != nullptr ? chooser->Choose(ctx) : opts_.algo));
      XQTP_RETURN_NOT_OK(
          mem.Grow(static_cast<int64_t>(rows.size() * sizeof(BindingRow))));
      for (const BindingRow& row : rows) builder.Add(i, row);
    }
    if (builder.rows() == 0) return Status::OK();
    return Emit(sink, builder.Finish());
  }

  /// Under kCostBased, the chooser of pattern operator `op` for this
  /// execution — the cost model's choice is resolved once per operator
  /// and context shape; null when opts_.algo is a fixed algorithm.
  AlgoChooser* ChooserFor(const Op& op) {
    if (opts_.algo != PatternAlgo::kCostBased) return nullptr;
    return &choosers_.try_emplace(&op, op.tp).first->second;
  }

  const core::VarTable& vars_;
  const Bindings& bindings_;
  const EvalOptions& opts_;
  /// Stride counter for the operator-boundary governor check (see
  /// EvalItemInner); coordinating thread only.
  uint32_t governor_tick_ = 0;
  std::unordered_map<core::VarId, Sequence> scoped_;
  /// Per-operator cost-based choices (kCostBased only; see ChooserFor).
  std::unordered_map<const Op*, AlgoChooser> choosers_;
  /// Parallel-evaluation parameters (null when opts_.threads resolves
  /// to 1) and the lazily-created per-query pool behind par_->pool.
  std::unique_ptr<ParallelContext> par_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace

Result<Sequence> Evaluate(const Op& plan, const core::VarTable& vars,
                          const Bindings& bindings, const EvalOptions& opts) {
  XQTP_FAULT_POINT("exec.evaluate");
  if (!opts.HasGovernorLimits()) {
    Evaluator ev(vars, bindings, opts);
    return ev.Run(plan);
  }
  GovernorLimits limits;
  limits.deadline = opts.deadline;
  limits.memory_budget_bytes = opts.memory_budget_bytes;
  limits.cancel_token = opts.cancel_token;
  QueryGovernor governor(limits);
  ScopedGovernor install(&governor);
  Evaluator ev(vars, bindings, opts);
  Result<Sequence> res = ev.Run(plan);
  // Record the governor's telemetry whether the query completed or
  // tripped; worker-morsel checks land here too (the counters are the
  // shared governor's atomics).
  if (ExecStats* s = CurrentExecStats()) {
    s->governor_checks += governor.checks();
    if (governor.peak_bytes() > s->peak_memory_bytes) {
      s->peak_memory_bytes = governor.peak_bytes();
    }
  }
  return res;
}

}  // namespace xqtp::exec
