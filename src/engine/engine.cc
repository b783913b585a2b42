#include "engine/engine.h"

#include "algebra/printer.h"
#include "common/fault_injection.h"
#include "common/fingerprint.h"
#include "analysis/core_verifier.h"
#include "analysis/plan_lint.h"
#include "analysis/plan_verifier.h"
#include "core/odf.h"
#include "core/printer.h"

namespace xqtp::engine {

namespace {

// ---- CompiledQuery::MemoryUsage estimation ---------------------------------
// sizeof-based traversal of the retained forms, in the same approximate
// spirit as the governor's intermediate accounting: the LRU needs charges
// proportional to plan size, not an allocator audit.

int64_t BytesOf(const pattern::PatternNode& p) {
  int64_t bytes = static_cast<int64_t>(sizeof(pattern::PatternNode));
  bytes += static_cast<int64_t>(p.predicates.capacity() *
                                sizeof(pattern::PatternNodePtr));
  for (const pattern::PatternNodePtr& pred : p.predicates) {
    bytes += BytesOf(*pred);
  }
  if (p.next != nullptr) bytes += BytesOf(*p.next);
  return bytes;
}

int64_t BytesOf(const core::CoreExpr& e) {
  int64_t bytes = static_cast<int64_t>(sizeof(core::CoreExpr));
  bytes += static_cast<int64_t>(e.children.capacity() *
                                sizeof(core::CoreExprPtr));
  for (const core::CoreExprPtr& c : e.children) bytes += BytesOf(*c);
  if (e.where != nullptr) bytes += BytesOf(*e.where);
  return bytes;
}

int64_t BytesOf(const algebra::Op& op) {
  int64_t bytes = static_cast<int64_t>(sizeof(algebra::Op));
  bytes += static_cast<int64_t>(op.inputs.capacity() * sizeof(algebra::OpPtr));
  for (const algebra::OpPtr& in : op.inputs) bytes += BytesOf(*in);
  if (op.dep != nullptr) bytes += BytesOf(*op.dep);
  if (op.dep2 != nullptr) bytes += BytesOf(*op.dep2);
  if (op.tp.root != nullptr) bytes += BytesOf(*op.tp.root);
  return bytes;
}

int64_t EstimateMemoryUsage(const CompiledQuery& q) {
  int64_t bytes = static_cast<int64_t>(sizeof(CompiledQuery));
  bytes += static_cast<int64_t>(q.source().capacity());
  // Per-variable bookkeeping (name string + table slots), flat estimate.
  bytes += static_cast<int64_t>(q.vars().size()) * 64;
  bytes += BytesOf(q.normalized());
  bytes += BytesOf(q.rewritten());
  bytes += BytesOf(q.plan());
  bytes += BytesOf(q.optimized());
  for (const analysis::LintFinding& f : q.lint_findings()) {
    bytes += static_cast<int64_t>(sizeof(f) + f.rule.capacity() +
                                  f.detail.capacity());
  }
  return bytes;
}

/// Option bits that shape the compiled plan, packed for HashCombine.
uint64_t PlanShapeBits(const CompileOptions& opts) {
  uint64_t bits = 0;
  auto set = [&bits](bool on, int bit) {
    if (on) bits |= uint64_t{1} << bit;
  };
  set(opts.rewrite, 0);
  set(opts.detect_tree_patterns, 1);
  set(opts.positional_patterns, 2);
  set(opts.multi_output_patterns, 3);
  set(opts.infer_properties, 4);
  set(opts.rewrite_opts.typeswitch_rules, 5);
  set(opts.rewrite_opts.flwor_rules, 6);
  set(opts.rewrite_opts.ddo_removal, 7);
  set(opts.rewrite_opts.loop_split, 8);
  set(opts.rewrite_opts.unsound_ddo_strip_for_testing, 9);
  return bits;
}

}  // namespace

Result<const xml::Document*> Engine::LoadDocument(const std::string& name,
                                                  std::string_view xml_text) {
  XQTP_ASSIGN_OR_RETURN(std::unique_ptr<xml::Document> doc,
                        xml::Parse(xml_text, &interner_));
  return AddDocument(name, std::move(doc));
}

const xml::Document* Engine::AddDocument(const std::string& name,
                                         std::unique_ptr<xml::Document> doc) {
  doc->set_id(next_doc_id_++);
  const xml::Document* raw = doc.get();
  docs_[name] = std::move(doc);
  return raw;
}

const xml::Document* Engine::FindDocument(const std::string& name) const {
  auto it = docs_.find(name);
  return it == docs_.end() ? nullptr : it->second.get();
}

analysis::EquivChecker* Engine::equiv_checker() {
  if (!options_.analysis.check_equivalence) return nullptr;
  if (!equiv_) {
    equiv_ = std::make_unique<analysis::EquivChecker>(&interner_,
                                                      options_.analysis);
  }
  return equiv_.get();
}

Result<CompiledQuery> Engine::Compile(std::string_view query,
                                      const CompileOptions& opts) {
  // Compile-time governance: the rewriter and optimizer poll the ambient
  // governor once per fixpoint round (core/rewrite.cc, algebra/optimize.cc).
  exec::GovernorLimits climits;
  climits.deadline = opts.deadline;
  climits.cancel_token = opts.cancel_token;
  std::optional<exec::QueryGovernor> governor;
  std::optional<exec::ScopedGovernor> governed;
  if (climits.Any()) {
    governor.emplace(climits);
    governed.emplace(&*governor);
  }

  CompiledQuery q;
  q.source_ = std::string(query);

  XQTP_ASSIGN_OR_RETURN(xquery::ExprPtr surface,
                        xquery::ParseQuery(query, &interner_));
  XQTP_ASSIGN_OR_RETURN(q.normalized_, core::Normalize(*surface, &q.vars_));
  if (options_.verify_plans) {
    // The normalizer has no cached ODF annotations yet, so only the
    // structural invariants apply here.
    analysis::VerifyScope scope("normalize");
    scope.MarkFired();
    XQTP_RETURN_NOT_OK(analysis::VerifyCore(*q.normalized_, q.vars_));
  }

  if (opts.rewrite) {
    core::RewriteOptions ropts = opts.rewrite_opts;
    ropts.verify = options_.verify_plans;
    ropts.equiv = equiv_checker();
    XQTP_ASSIGN_OR_RETURN(
        q.rewritten_,
        core::RewriteToTPNF(core::Clone(*q.normalized_), &q.vars_, ropts));
  } else {
    q.rewritten_ = core::Clone(*q.normalized_);
    // The rewriter annotates ODF as its last step; mirror that here so
    // algebra::Compile can seed the plan-level property analysis on the
    // unrewritten pipeline too.
    core::AnnotateOdf(q.rewritten_.get(), q.vars_);
  }

  XQTP_ASSIGN_OR_RETURN(q.plan_,
                        algebra::Compile(*q.rewritten_, q.vars_, &interner_));
  if (options_.verify_plans) {
    analysis::VerifyScope scope("algebra compile");
    scope.MarkFired();
    analysis::PlanVerifyOptions vopts;
    vopts.vars = &q.vars_;
    vopts.interner = &interner_;
    XQTP_RETURN_NOT_OK(analysis::VerifyPlan(*q.plan_, vopts));
  }
  if (analysis::EquivChecker* equiv = equiv_checker()) {
    // Differential check of the compilation step itself: the compiled
    // plan must agree with the rewritten Core on the witness corpus.
    analysis::VerifyScope scope("algebra compile");
    scope.MarkFired();
    XQTP_RETURN_NOT_OK(
        equiv->CheckCoreVsPlan(*q.rewritten_, *q.plan_, q.vars_));
  }
  q.optimized_ = algebra::Clone(*q.plan_);
  algebra::OptimizeOptions oopts;
  oopts.detect_tree_patterns = opts.detect_tree_patterns;
  oopts.positional_patterns = opts.positional_patterns;
  oopts.multi_output_patterns = opts.multi_output_patterns;
  oopts.infer_properties = opts.infer_properties;
  oopts.verify = options_.verify_plans;
  oopts.vars = &q.vars_;
  oopts.equiv = equiv_checker();
  XQTP_RETURN_NOT_OK(algebra::Optimize(&q.optimized_, &interner_, oopts));
  if (options_.verify_plans && opts.infer_properties) {
    // Diagnostics only: lint findings are retained on the query (and in
    // the explain output) but never fail compilation.
    analysis::VerifyScope scope("plan lint");
    analysis::PlanLintOptions lopts;
    lopts.interner = &interner_;
    q.lint_findings_ = analysis::LintPlan(*q.optimized_, lopts);
  }
  // Final build-path stamps; the query is immutable from here on
  // (lint.py rule compiled-query-immutable).
  q.fingerprint_ = Fingerprint(query, opts);
  q.memory_bytes_ = EstimateMemoryUsage(q);
  return q;
}

uint64_t Engine::Fingerprint(std::string_view query,
                             const CompileOptions& opts) const {
  uint64_t h = HashBytes(CanonicalizeQuery(query));
  h = HashCombine(h, PlanShapeBits(opts));
  h = HashCombine(h, static_cast<uint64_t>(opts.rewrite_opts.max_rounds));
  return h;
}

Result<PlanCache::PlanPtr> Engine::CompileForCache(const std::string& query,
                                                   const CompileOptions& opts) {
  XQTP_ASSIGN_OR_RETURN(CompiledQuery q, Compile(query, opts));
  return PlanCache::PlanPtr(
      std::make_shared<const CompiledQuery>(std::move(q)));
}

Result<std::shared_ptr<const CompiledQuery>> Engine::CompileCached(
    std::string_view query, const CompileOptions& opts) {
  const uint64_t key = Fingerprint(query, opts);
  const std::string text(query);
  return plan_cache_.GetOrCompile(key, [&]() -> Result<PlanCache::PlanPtr> {
    if (options_.analysis.check_equivalence) {
      // The oracle (and its lazy creation) is single-threaded; serialize
      // whole fills while it participates in compilation.
      MutexLock lock(&compile_mu_);
      return CompileForCache(text, opts);
    }
    return CompileForCache(text, opts);
  });
}

Result<xdm::Sequence> Engine::ExecuteQuery(std::string_view query,
                                           const GlobalMap& globals,
                                           const exec::EvalOptions& eval_opts,
                                           const CompileOptions& opts) {
  XQTP_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledQuery> q,
                        CompileCached(query, opts));
  return Execute(*q, globals, eval_opts);
}

bool Engine::ErasePlan(std::string_view query, const CompileOptions& opts) {
  return plan_cache_.Erase(Fingerprint(query, opts));
}

void Engine::SetOptions(const EngineOptions& options) {
  options_ = options;
  equiv_.reset();  // rebuilt lazily under the new analysis options
  plan_cache_.BumpGeneration();
}

std::vector<std::string> CompiledQuery::GlobalNames() const {
  std::vector<std::string> names;
  for (core::VarId v = 0; v < static_cast<core::VarId>(vars_.size()); ++v) {
    if (vars_.IsGlobal(v)) names.push_back(vars_.NameOf(v));
  }
  return names;
}

Result<xdm::Sequence> Engine::Execute(const CompiledQuery& q,
                                      const GlobalMap& globals,
                                      const exec::EvalOptions& opts,
                                      PlanChoice plan) const {
  XQTP_FAULT_POINT("engine.execute");
  exec::Bindings bindings;
  for (core::VarId v = 0; v < static_cast<core::VarId>(q.vars().size());
       ++v) {
    if (!q.vars().IsGlobal(v)) continue;
    auto it = globals.find(q.vars().NameOf(v));
    if (it == globals.end()) {
      return Status::InvalidArgument("no binding provided for query global $" +
                                     q.vars().NameOf(v));
    }
    bindings[v] = it->second;
  }
  // Every name a compiled plan can mention is already interned; enforce
  // (in debug builds) that evaluation — possibly on several threads —
  // never writes to the interner.
  StringInterner::ExecutionFreeze freeze(interner_);
  switch (plan) {
    case PlanChoice::kOptimized:
      return exec::Evaluate(q.optimized(), q.vars(), bindings, opts);
    case PlanChoice::kUnoptimized:
      return exec::Evaluate(q.plan(), q.vars(), bindings, opts);
    case PlanChoice::kCoreInterp:
      return exec::EvaluateCore(q.rewritten(), q.vars(), bindings);
  }
  return Status::Internal("unknown plan choice");
}

Result<xdm::Sequence> Engine::Run(std::string_view query,
                                  const xml::Document& doc,
                                  exec::PatternAlgo algo,
                                  const CompileOptions& opts) {
  XQTP_ASSIGN_OR_RETURN(CompiledQuery q, Compile(query, opts));
  GlobalMap globals;
  for (const std::string& name : q.GlobalNames()) {
    globals[name] = xdm::Sequence{xdm::Item(doc.root())};
  }
  return Execute(q, globals, {.algo = algo});
}

std::string Engine::Explain(const CompiledQuery& q) const {
  std::string out;
  out += "== query ==\n" + q.source() + "\n";
  out += "\n== normalized core ==\n";
  out += core::ToString(q.normalized(), q.vars(), interner_) + "\n";
  out += "\n== rewritten core (TPNF') ==\n";
  out += core::ToString(q.rewritten(), q.vars(), interner_) + "\n";
  out += "\n== algebra plan ==\n";
  out += algebra::ToPrettyString(q.plan(), q.vars(), interner_) + "\n";
  out += "\n== optimized plan ==\n";
  out += algebra::ToPrettyString(q.optimized(), q.vars(), interner_) + "\n";
  if (!q.lint_findings().empty()) {
    out += "\n== plan lint ==\n";
    for (const analysis::LintFinding& f : q.lint_findings()) {
      out += f.rule + ": " + f.detail + "\n";
    }
  }
  out += "\n== plan cache ==\n";
  out += "fingerprint: " + FingerprintHex(q.fingerprint()) + "\n";
  PlanCachePeek peek = plan_cache_.Peek(q.fingerprint());
  if (peek.present) {
    out += "disposition: cached (" + std::to_string(peek.hits) + " hit" +
           (peek.hits == 1 ? "" : "s") + ", " + std::to_string(peek.bytes) +
           " bytes)\n";
  } else {
    out += "disposition: not cached\n";
  }
  return out;
}

}  // namespace xqtp::engine
