// Public facade: the full compilation pipeline of the paper's Figure 2
// (parse -> normalize -> TPNF' rewrite -> algebraic compile -> tree-pattern
// optimization) plus execution with a chosen physical algorithm.
//
// Quickstart:
//   xqtp::engine::Engine engine;
//   auto doc = engine.LoadDocument("auction", xml_text);          // Result
//   auto q = engine.Compile("$input//person[emailaddress]/name"); // Result
//   Engine::GlobalMap globals{
//       {"input", {xdm::Item(doc.value()->root())}}};
//   auto result = engine.Execute(
//       *q, globals, {.algo = xqtp::exec::PatternAlgo::kTwig});  // Result
//
// Serving hot path (compiles through the sharded plan cache; repeated
// queries skip the whole pipeline — see engine/plan_cache.h):
//   auto served = engine.ExecuteQuery("$input//person/name", globals);
//   auto stats = engine.plan_cache_stats();  // hits / misses / bytes ...
#ifndef XQTP_ENGINE_ENGINE_H_
#define XQTP_ENGINE_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/compile.h"
#include "algebra/optimize.h"
#include "analysis/equiv_checker.h"
#include "analysis/plan_lint.h"
#include "common/status.h"
#include "common/mutex.h"
#include "core/normalize.h"
#include "core/rewrite.h"
#include "engine/plan_cache.h"
#include "exec/core_interp.h"
#include "exec/evaluator.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xquery/parser.h"

namespace xqtp::engine {

struct EngineOptions {
  /// Run the static verifiers (analysis::VerifyCore after normalization
  /// and rewriting, analysis::VerifyPlan after compilation and after each
  /// optimizer round) on every query compiled through this engine. A
  /// violation surfaces as Status::Internal tagged with the pass that
  /// produced the broken tree. On by default in Debug builds.
  bool verify_plans = analysis::kVerifyByDefault;
  /// Translation-validation oracle: when analysis.check_equivalence is
  /// set, every rewrite-rule family and optimizer round is additionally
  /// validated by executing the tree before and after the rules against
  /// the witness corpus (analysis/equiv_checker.h), and the Core ->
  /// algebra compilation step is differentially checked. A divergence
  /// surfaces as Status::Internal carrying the offending rule, the
  /// minimized witness document, and both printed forms. On by default
  /// in Debug builds, like the verifiers.
  analysis::AnalysisOptions analysis;
  /// Compiled-plan cache sizing (engine/plan_cache.h). The capacity is
  /// fixed at engine construction; SetOptions does not resize the cache
  /// (it only invalidates entries compiled under the old options).
  PlanCacheConfig plan_cache;
};

struct CompileOptions {
  /// Apply the TPNF' Core rewrites (phase 2). Off = each syntactic variant
  /// keeps its own shape.
  bool rewrite = true;
  /// Apply the algebraic tree-pattern detection (rules (a)-(f)).
  /// Off = the "old engine" of Figure 4: nested maps + navigational
  /// TreeJoin.
  bool detect_tree_patterns = true;
  /// Fold constant positional predicates into pattern steps (rule (g) —
  /// the paper's future-work extension). Off by default so plans match
  /// the paper.
  bool positional_patterns = false;
  /// Merge cascades into multi-output ("generalized") patterns (rule
  /// (d') — the paper's primary future-work item). Off by default.
  bool multi_output_patterns = false;
  /// Fine-grained rewrite switches (used by the ablation benchmark).
  core::RewriteOptions rewrite_opts;
  /// Plan-level property inference (analysis/plan_props.h): prove
  /// order/distinctness/cardinality facts over the optimized plan, use
  /// them for property-justified rewrites (OptimizeOptions::
  /// infer_properties), and stamp the surviving facts as runtime-checked
  /// claims. Off = the optimizer uses only the structural rules (a)-(g).
  bool infer_properties = true;
  /// Compile-time resource limits: when either is set, Compile installs a
  /// governor for its duration and the rewriter's / optimizer's fixpoint
  /// rounds poll it — an adversarial query cannot pin the compiler any
  /// more than the evaluator. Independent of the execution-time limits in
  /// exec::EvalOptions.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  std::shared_ptr<exec::CancelToken> cancel_token;
};

/// A query compiled through every phase, with the intermediate forms
/// retained for explain output and tests.
///
/// IMMUTABLE AFTER BUILD: Engine::Compile populates every field and
/// nothing mutates one afterwards, so a `shared_ptr<const CompiledQuery>`
/// handed out by the plan cache is safe to execute from any number of
/// threads concurrently (per-run state lives in exec::EvalOptions and the
/// governor). tools/lint.py rule `compiled-query-immutable` rejects
/// writes to the internals outside the build path.
class CompiledQuery {
 public:
  const std::string& source() const { return source_; }
  const core::VarTable& vars() const { return vars_; }

  /// The normalized Core expression (the paper's Q1a-n stage).
  const core::CoreExpr& normalized() const { return *normalized_; }
  /// The Core expression after the TPNF' rewrites (the Q1-tp stage).
  const core::CoreExpr& rewritten() const { return *rewritten_; }
  /// The compiled, unoptimized algebra plan (the P1 stage).
  const algebra::Op& plan() const { return *plan_; }
  /// The final optimized plan (the P5 stage).
  const algebra::Op& optimized() const { return *optimized_; }

  /// Names of the query's free variables, to be bound at execution.
  std::vector<std::string> GlobalNames() const;

  /// Plan statistics of the optimized plan.
  algebra::PlanStats Stats() const { return algebra::ComputeStats(*optimized_); }

  /// PlanLint diagnostics over the optimized plan (analysis/plan_lint.h).
  /// Populated when the engine runs with verify_plans (debug default);
  /// findings never fail compilation.
  const std::vector<analysis::LintFinding>& lint_findings() const {
    return lint_findings_;
  }

  /// Canonical fingerprint of (query text, plan-shaping CompileOptions),
  /// stamped at compile (see Engine::Fingerprint). The plan-cache key;
  /// also printed by Explain.
  uint64_t fingerprint() const { return fingerprint_; }

  /// Estimated heap footprint of the retained forms (source text, Core
  /// trees, both plans, lint findings). The byte charge the plan cache's
  /// LRU accounting uses; approximate by design (sizeof-based traversal,
  /// like the governor's memory accounting).
  int64_t MemoryUsage() const { return memory_bytes_; }

 private:
  friend class Engine;
  std::string source_;
  core::VarTable vars_;
  core::CoreExprPtr normalized_;
  core::CoreExprPtr rewritten_;
  algebra::OpPtr plan_;
  algebra::OpPtr optimized_;
  std::vector<analysis::LintFinding> lint_findings_;
  uint64_t fingerprint_ = 0;
  int64_t memory_bytes_ = 0;
};

/// Which plan Execute runs.
enum class PlanChoice : uint8_t {
  kOptimized,     ///< the tree-pattern plan (default)
  kUnoptimized,   ///< the P1-style plan — the Figure 4 "old engine"
  kCoreInterp,    ///< direct interpretation of the rewritten Core
};

class Engine {
 public:
  Engine() = default;
  explicit Engine(const EngineOptions& options) : options_(options) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Parses and registers an XML document under `name`.
  [[nodiscard]]
  Result<const xml::Document*> LoadDocument(const std::string& name,
                                            std::string_view xml_text);

  /// Registers an externally built document (e.g. from the workload
  /// generators). Takes ownership.
  const xml::Document* AddDocument(const std::string& name,
                                   std::unique_ptr<xml::Document> doc);

  /// Returns a registered document or nullptr.
  const xml::Document* FindDocument(const std::string& name) const;

  /// Compiles a query through all phases.
  [[nodiscard]]
  Result<CompiledQuery> Compile(std::string_view query,
                                const CompileOptions& opts = {});

  /// Canonical plan-cache key for (query, opts): FNV-1a over the
  /// canonicalized query text (whitespace/comment-insensitive — see
  /// common/fingerprint.h) combined with every CompileOptions field that
  /// affects plan shape (rewrite and detection switches, the fine-grained
  /// rewrite_opts, infer_properties). Compile-time limits (deadline,
  /// cancel_token) do not shape the plan and are excluded, so a query
  /// compiled with a deadline still hits the entry cached without one.
  uint64_t Fingerprint(std::string_view query,
                       const CompileOptions& opts = {}) const;

  /// Compiles through the sharded plan cache (engine/plan_cache.h): a hit
  /// returns the shared immutable plan without recompiling; concurrent
  /// misses on one fingerprint compile exactly once (single-flight), the
  /// waiters receiving the filled plan or the compile error. The static
  /// verifiers and the translation-validation oracle run at fill only —
  /// a hit is an already-verified plan. Thread-safe; when the oracle is
  /// enabled (Debug default), fills additionally serialize on an engine
  /// mutex because analysis::EquivChecker is single-threaded.
  [[nodiscard]]
  Result<std::shared_ptr<const CompiledQuery>> CompileCached(
      std::string_view query, const CompileOptions& opts = {});

  /// Global bindings by variable name; a document binds as its root node.
  using GlobalMap = std::map<std::string, xdm::Sequence>;

  /// Executes a compiled query. EvalOptions picks the pattern algorithm
  /// (`{.algo = ...}`; default the cost-based choice) and the thread
  /// count: the default 1 is the sequential path, N > 1 partitions a
  /// pattern operator's input tuples over a per-query pool
  /// (exec/parallel.h), 0 = one thread per hardware thread. Evaluation
  /// runs under a StringInterner::ExecutionFreeze: no name may be
  /// interned mid-query.
  [[nodiscard]]
  Result<xdm::Sequence> Execute(const CompiledQuery& q,
                                const GlobalMap& globals,
                                const exec::EvalOptions& opts = {},
                                PlanChoice plan = PlanChoice::kOptimized) const;

  /// The serving hot path: CompileCached + Execute. Repeated calls with
  /// textual variants of one query (whitespace, comments) recompile
  /// nothing after the first.
  [[nodiscard]]
  Result<xdm::Sequence> ExecuteQuery(std::string_view query,
                                     const GlobalMap& globals,
                                     const exec::EvalOptions& eval_opts = {},
                                     const CompileOptions& opts = {});

  /// One-shot convenience: compile + execute against a single document
  /// bound to every free variable of the query.
  [[nodiscard]]
  Result<xdm::Sequence> Run(std::string_view query, const xml::Document& doc,
                            exec::PatternAlgo algo = exec::EvalOptions{}.algo,
                            const CompileOptions& opts = {});

  /// Point-in-time plan-cache counters (hits, misses, fills, evictions,
  /// single-flight waits, bytes, per-shard occupancy).
  PlanCacheStats plan_cache_stats() const { return plan_cache_.Snapshot(); }

  /// Drops the cached plan for (query, opts). Returns true when an entry
  /// was present. An in-flight fill is unaffected and will re-insert.
  bool ErasePlan(std::string_view query, const CompileOptions& opts = {});

  /// Drops every cached plan. Plans still referenced by running
  /// executions stay alive through their shared_ptr.
  void ClearPlanCache() { plan_cache_.Clear(); }

  /// Replaces the engine options and invalidates every cached plan (they
  /// were compiled under the old options; the cached entries are dropped
  /// lazily via a generation bump). The plan cache's byte capacity stays
  /// as constructed. Must not race with in-flight Compile calls.
  void SetOptions(const EngineOptions& options);

  /// Multi-phase explain dump (surface / core / rewritten / plan /
  /// optimized plan), for the examples and debugging.
  std::string Explain(const CompiledQuery& q) const;

  StringInterner* interner() { return &interner_; }
  const StringInterner& interner() const { return interner_; }

 private:
  /// The engine's oracle, created on first use (witness documents parse
  /// with the engine's interner, which must exist first).
  analysis::EquivChecker* equiv_checker();

  /// Compiles `query` and wraps it for the cache; runs outside any cache
  /// shard lock (callers hold compile_mu_ first when the oracle is on).
  [[nodiscard]]
  Result<PlanCache::PlanPtr> CompileForCache(const std::string& query,
                                             const CompileOptions& opts);

  EngineOptions options_;
  StringInterner interner_;
  std::map<std::string, std::unique_ptr<xml::Document>> docs_;
  std::unique_ptr<analysis::EquivChecker> equiv_;
  int32_t next_doc_id_ = 0;
  /// Serializes whole compilations when the translation-validation
  /// oracle is enabled: the EquivChecker (and its lazy creation) is
  /// explicitly not thread-safe. With the oracle off (Release serving
  /// default), cache fills for different keys compile fully in parallel.
  Mutex compile_mu_;
  /// Sized once from options_.plan_cache (declared after options_ so the
  /// default member initializer reads the configured capacity).
  PlanCache plan_cache_{options_.plan_cache};
};

}  // namespace xqtp::engine

#endif  // XQTP_ENGINE_ENGINE_H_
