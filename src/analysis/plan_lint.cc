#include "analysis/plan_lint.h"

#include <unordered_set>

#include "analysis/plan_props.h"
#include "core/ast.h"
#include "pattern/tree_pattern.h"

namespace xqtp::analysis {

namespace {

using algebra::Op;
using algebra::OpKind;
using algebra::OpPtr;

using FieldSet = std::unordered_set<Symbol>;

void CollectReads(const Op& op, FieldSet* out) {
  if (op.kind == OpKind::kFieldAccess) out->insert(op.field);
  if (op.kind == OpKind::kTupleTreePattern) out->insert(op.tp.input_field);
  for (const OpPtr& in : op.inputs) CollectReads(*in, out);
  if (op.dep) CollectReads(*op.dep, out);
  if (op.dep2) CollectReads(*op.dep2, out);
}

FieldSet ReadsOf(const Op& op) {
  FieldSet s;
  CollectReads(op, &s);
  return s;
}

class Linter {
 public:
  Linter(const PlanProps& props, const PlanLintOptions& opts)
      : props_(props), opts_(opts) {}

  std::vector<LintFinding> Run(const Op& plan) {
    Walk(plan, FieldSet{});
    return std::move(findings_);
  }

 private:
  std::string FieldName(Symbol s) const {
    if (opts_.interner != nullptr && s != kInvalidSymbol) {
      return opts_.interner->NameOf(s);
    }
    return "#" + std::to_string(s);
  }

  void Report(const char* rule, std::string detail) {
    findings_.push_back(LintFinding{rule, std::move(detail)});
  }

  void CheckNode(const Op& n, const FieldSet& live) {
    switch (n.kind) {
      case OpKind::kDdo: {
        const ItemProps* in = props_.Item(n.inputs[0].get());
        if (in != nullptr && ProvenDdoRedundant(*in)) {
          Report("redundant-ddo",
                 "fs:ddo input is proven ordered and duplicate-free; the "
                 "operator is the identity");
        }
        break;
      }
      case OpKind::kMapFromItem:
        if (live.count(n.field) == 0) {
          Report("dead-field", "MapFromItem binds field '" +
                                   FieldName(n.field) +
                                   "' that no downstream operator reads");
        }
        break;
      case OpKind::kSelect:
        if (n.dep && n.dep->kind == OpKind::kConst) {
          Report("const-select",
                 "Select predicate is a literal: the filter keeps or drops "
                 "every tuple");
        }
        break;
      case OpKind::kTupleTreePattern: {
        for (Symbol out : n.tp.OutputFields()) {
          if (live.count(out) == 0) {
            Report("dead-field", "pattern annotation '" + FieldName(out) +
                                     "' is never read downstream");
          }
        }
        break;
      }
      default:
        break;
    }
    // Cardinality: a proven-empty operator output means dead computation.
    const OpProps* p = props_.Lookup(&n);
    if (p != nullptr) {
      int64_t hi = p->is_tuple ? p->tuple.card.hi : p->item.card.hi;
      // Skip literal empty sequences: `()` is how the query says empty.
      if (hi == 0 && n.kind != OpKind::kSequence && n.kind != OpKind::kConst) {
        Report("card-zero", "operator output is proven empty");
      }
    }
  }

  /// Mirrors the optimizer's liveness threading (algebra/optimize.cc) so
  /// dead-field findings agree with what the rewrites consider live.
  void Walk(const Op& n, const FieldSet& live) {
    CheckNode(n, live);
    switch (n.kind) {
      case OpKind::kMapToItem:
        Walk(*n.inputs[0], ReadsOf(*n.dep));
        Walk(*n.dep, FieldSet{});
        break;
      case OpKind::kSelect: {
        FieldSet inner = live;
        FieldSet pred_reads = ReadsOf(*n.dep);
        inner.insert(pred_reads.begin(), pred_reads.end());
        Walk(*n.inputs[0], inner);
        Walk(*n.dep, FieldSet{});
        break;
      }
      case OpKind::kTupleTreePattern: {
        FieldSet inner = live;
        for (Symbol s : n.tp.OutputFields()) inner.erase(s);
        inner.insert(n.tp.input_field);
        Walk(*n.inputs[0], inner);
        break;
      }
      default:
        for (const OpPtr& in : n.inputs) Walk(*in, FieldSet{});
        if (n.dep) Walk(*n.dep, FieldSet{});
        if (n.dep2) Walk(*n.dep2, FieldSet{});
        break;
    }
  }

  const PlanProps& props_;
  const PlanLintOptions& opts_;
  std::vector<LintFinding> findings_;
};

}  // namespace

std::vector<LintFinding> LintPlan(const algebra::Op& plan,
                                  const PlanLintOptions& opts) {
  PlanProps props = InferPlanProps(plan);
  Linter linter(props, opts);
  return linter.Run(plan);
}

}  // namespace xqtp::analysis
