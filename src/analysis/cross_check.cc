#include "analysis/cross_check.h"

#include <cmath>
#include <string>
#include <utility>

#include "exec/core_interp.h"

namespace xqtp::analysis {

bool ItemsAgree(const xdm::Item& a, const xdm::Item& b) {
  if (a.IsDouble() && b.IsDouble() && std::isnan(a.dbl()) &&
      std::isnan(b.dbl())) {
    return true;
  }
  return a == b;
}

namespace {

bool SameRows(const std::vector<exec::BindingRow>& a,
              const std::vector<exec::BindingRow>& b, size_t* first_diff) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    if (!(a[i] == b[i])) {
      *first_diff = i;
      return false;
    }
  }
  if (a.size() != b.size()) {
    *first_diff = n;
    return false;
  }
  return true;
}

std::string RenderRow(const exec::BindingRow& row,
                      const StringInterner& interner) {
  std::string out = "[";
  for (size_t i = 0; i < row.fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += interner.NameOf(row.fields[i].first) + ": ";
    const xml::Node* n = row.fields[i].second;
    if (n == nullptr) {
      out += "null";
    } else if (n->name != kInvalidSymbol) {
      out += interner.NameOf(n->name) + "[pre=" + std::to_string(n->pre) + "]";
    } else {
      out += "node[pre=" + std::to_string(n->pre) + "]";
    }
  }
  return out + "]";
}

bool AgreeSeq(const Result<xdm::Sequence>& a, const Result<xdm::Sequence>& b) {
  if (!a.ok() || !b.ok()) return !a.ok() && !b.ok();
  if (a.value().size() != b.value().size()) return false;
  for (size_t i = 0; i < a.value().size(); ++i) {
    if (!ItemsAgree(a.value()[i], b.value()[i])) return false;
  }
  return true;
}

std::string RenderSeqBrief(const Result<xdm::Sequence>& r) {
  if (!r.ok()) return "<error: " + r.status().ToString() + ">";
  std::string out = "len=" + std::to_string(r.value().size()) + " (";
  size_t n = r.value().size() < 8 ? r.value().size() : 8;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    const xdm::Item& item = r.value()[i];
    out += item.IsNode() ? "pre=" + std::to_string(item.node()->pre)
                         : item.StringValue();
  }
  if (n < r.value().size()) out += ", ...";
  return out + ")";
}

bool PlanHasPattern(const algebra::Op& op) {
  return algebra::ComputeStats(op).tree_pattern_ops > 0;
}

}  // namespace

const std::vector<exec::PatternAlgo>& CrossCheckAlgos() {
  static const std::vector<exec::PatternAlgo> kAlgos = {
      exec::PatternAlgo::kNLJoin,    exec::PatternAlgo::kStaircase,
      exec::PatternAlgo::kTwig,      exec::PatternAlgo::kStream,
      exec::PatternAlgo::kTwigStack, exec::PatternAlgo::kShredded,
      exec::PatternAlgo::kCostBased,
  };
  return kAlgos;
}

Status CrossCheckPattern(const pattern::TreePattern& tp,
                         const xdm::Sequence& context,
                         const StringInterner& interner) {
  auto reference = exec::EvalPattern(tp, context, exec::PatternAlgo::kNLJoin);
  XQTP_RETURN_NOT_OK(reference.status());
  for (exec::PatternAlgo algo : CrossCheckAlgos()) {
    if (algo == exec::PatternAlgo::kNLJoin) continue;  // the reference
    auto rows = exec::EvalPattern(tp, context, algo);
    const std::string name = exec::PatternAlgoName(algo);
    if (!rows.ok()) {
      return Status::Internal("cross-check: " + name +
                              " failed where NLJoin succeeded on " +
                              tp.ToString(interner) + ": " +
                              rows.status().ToString());
    }
    size_t diff = 0;
    if (!SameRows(reference.value(), rows.value(), &diff)) {
      std::string msg = "cross-check: " + name + " diverges from NLJoin";
      msg += "\n  pattern: " + tp.ToString(interner);
      msg += "\n  row " + std::to_string(diff) + ": NLJoin=" +
             (diff < reference.value().size()
                  ? RenderRow(reference.value()[diff], interner)
                  : std::string("<absent>")) +
             " vs " + name + "=" +
             (diff < rows.value().size()
                  ? RenderRow(rows.value()[diff], interner)
                  : std::string("<absent>"));
      msg += "\n  rows: NLJoin=" + std::to_string(reference.value().size()) +
             " " + name + "=" + std::to_string(rows.value().size());
      return Status::Internal(std::move(msg));
    }
  }
  return Status::OK();
}

Status CrossCheck(const CrossCheckInput& in, const core::VarTable& vars,
                  const exec::Bindings& bindings) {
  if (in.optimized == nullptr) {
    return Status::InvalidArgument("cross-check: optimized plan required");
  }
  struct Route {
    std::string name;
    Result<xdm::Sequence> result;
  };
  std::vector<Route> routes;
  if (in.reference != nullptr) {
    routes.push_back(
        {"core-interp", exec::EvaluateCore(*in.reference, vars, bindings)});
  }
  if (in.unoptimized != nullptr) {
    exec::EvalOptions uopts;
    uopts.algo = exec::PatternAlgo::kNLJoin;
    routes.push_back({"plan(unoptimized, NLJoin)",
                      exec::Evaluate(*in.unoptimized, vars, bindings, uopts)});
  }
  bool has_pattern = PlanHasPattern(*in.optimized);
  {
    // Batch-boundary leg: the same optimized plan through the batch
    // pipeline with a tiny batch size, so every multi-row stream crosses
    // batch boundaries. It must be bit-identical to the core-interp
    // reference and to the default 1024-row routes below.
    exec::EvalOptions bopts;
    bopts.algo = exec::PatternAlgo::kNLJoin;
    bopts.threads = 1;
    bopts.tuple_batch_rows = 2;
    routes.push_back({"plan(optimized, NLJoin, batch_rows=2)",
                      exec::Evaluate(*in.optimized, vars, bindings, bopts)});
  }
  for (exec::PatternAlgo algo : CrossCheckAlgos()) {
    exec::EvalOptions opts;
    opts.algo = algo;
    opts.threads = 1;
    routes.push_back(
        {std::string("plan(optimized, ") + exec::PatternAlgoName(algo) + ")",
         exec::Evaluate(*in.optimized, vars, bindings, opts)});
    if (has_pattern) {
      // Parallel leg: the same plan through the tuple-level morsel
      // driver with a forced fan-out, so every pattern operator fed two
      // or more tuples is partitioned and re-concatenated.
      exec::EvalOptions popts = opts;
      popts.threads = 2;
      popts.parallel_min_fanout = 2;
      routes.push_back({std::string("plan(optimized, ") +
                            exec::PatternAlgoName(algo) + ", threads=2)",
                        exec::Evaluate(*in.optimized, vars, bindings, popts)});
    }
    // Without a TupleTreePattern every algorithm takes the same code
    // path; one evaluation suffices.
    if (!has_pattern) break;
  }
  for (size_t i = 1; i < routes.size(); ++i) {
    if (AgreeSeq(routes[0].result, routes[i].result)) continue;
    std::string msg = "cross-check: route '" + routes[i].name +
                      "' diverges from '" + routes[0].name + "'";
    msg += "\n  " + routes[0].name + ": " + RenderSeqBrief(routes[0].result);
    msg += "\n  " + routes[i].name + ": " + RenderSeqBrief(routes[i].result);
    return Status::Internal(std::move(msg));
  }
  return Status::OK();
}

}  // namespace xqtp::analysis
