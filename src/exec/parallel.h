// Morsel-parallel execution of TupleTreePattern operators.
//
// The paper makes a detected tree pattern ONE coarse-grained operator
// whose physical algorithm is a sequential choice (EvalOptions::algo, by
// default the cost model's). Parallelism does not make a second choice:
// the driver only partitions the operator's INPUT TUPLES. When a pattern
// operator receives at least EvalOptions::parallel_min_fanout tuples
// (a per-row plan such as `for $b in ... return $b/bidder[1]/increase`),
// contiguous input-row ranges become morsels, each row runs the
// unmodified pattern with the sequential algorithm, and the per-morsel
// output batches are concatenated in input-row order. A pattern fed a
// single tuple (the document root) always runs sequentially.
//
// The pool is per query: a fixed set of threads with a shared atomic
// morsel cursor — no work stealing, just finer-than-thread morsels for
// load balance. Workers collect their ExecStats into per-morsel slots
// that the driver merges into the calling scope on join, so counters stay
// exact under parallelism. Pattern evaluation never touches the engine's
// interner (see StringInterner::ExecutionFreeze); lazily-built document
// indexes are pre-warmed before fan-out so Document::lazy_mu_ is only
// ever taken on its shared (read) path by workers.
#ifndef XQTP_EXEC_PARALLEL_H_
#define XQTP_EXEC_PARALLEL_H_

#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/governor.h"
#include "exec/pattern_eval.h"
#include "exec/tuple.h"
#include "pattern/tree_pattern.h"
#include "xdm/item.h"

namespace xqtp::exec {

/// A fixed pool of worker threads executing batches of indexed morsels.
/// Morsels are claimed from a single atomic cursor (morsel-driven, no
/// stealing); the thread calling Run participates, so a pool of size N
/// spawns N-1 workers. Run calls are serialized — a pool may be shared
/// across threads, but morsel tasks must never invoke Run recursively
/// (the nested call would wait on the pool it is running on).
class ThreadPool {
 public:
  /// Resolves an EvalOptions::threads value: 0 means one thread per
  /// hardware thread, anything else is taken literally (minimum 1).
  static int ResolveThreads(int threads);

  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(0) ... fn(count-1), each exactly once, distributed over the
  /// pool plus the calling thread; returns when all have finished. `fn`
  /// must not throw and must not call Run on this pool (the EXCLUDES
  /// turns a same-thread re-entry into a compile-time diagnostic).
  void Run(int count, const std::function<void(int)>& fn)
      EXCLUDES(run_mu_, mu_);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  /// Serializes whole Run calls; always taken before mu_ (the
  /// ACQUIRED_BEFORE declaration lets clang check the ordering).
  Mutex run_mu_ ACQUIRED_BEFORE(mu_);

  Mutex mu_;  ///< guards the batch state below
  CondVar work_cv_;
  CondVar done_cv_;
  const std::function<void(int)>* fn_ GUARDED_BY(mu_) = nullptr;
  int count_ GUARDED_BY(mu_) = 0;
  int next_ GUARDED_BY(mu_) = 0;
  int done_ GUARDED_BY(mu_) = 0;
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

/// Per-evaluation parallelism parameters handed down from EvalOptions.
/// `pool` is a lazy accessor so the (per-query) pool is only created once
/// a pattern actually morselizes. It receives the driver's *effective*
/// thread count (see ClampParallelThreads) so the first morselizing
/// evaluation sizes the pool to the work actually available instead of
/// the requested maximum — spawning workers that would only contend on
/// the morsel cursor is exactly the scaling cliff bench_parallel
/// recorded at 4 and 8 threads on ~1000-unit fan-outs.
struct ParallelContext {
  std::function<ThreadPool*(int threads)> pool;
  /// The query's governor, or nullptr when no limits are set. Workers
  /// install it (exec/governor.h ScopedGovernor) for the duration of each
  /// morsel, observe cancellation between morsels, and share its sticky
  /// verdict — the governor itself is thread-safe.
  QueryGovernor* governor = nullptr;
  /// Resolved pool size (>= 2; a context is only built for parallel runs).
  int threads = 2;
  /// Minimum number of input tuples before the driver morselizes; below
  /// it the sequential path runs. Morsels are never smaller than
  /// min_fanout / 4 tuples.
  int min_fanout = 256;
};

/// Effective worker count for `units` parallel work units: one thread
/// per `min_fanout` units, clamped to [2, threads]. The floor of 2
/// preserves the min_fanout gate's decision that parallelism is
/// worthwhile at all; the per-unit scaling stops an 8-thread request
/// from oversubscribing a fan-out that only feeds 2-3 threads (pool
/// spawn + morsel-cursor contention made 8 threads *slower* than 2 on
/// the XMark //item//location bench before this clamp).
int ClampParallelThreads(size_t units, int threads, int min_fanout);

/// Builds a TupleTreePattern's output batch from binding rows, with
/// overwrite semantics per row: the schema is the input batch's columns
/// in order (a binding field naming an input column replaces its value),
/// followed by the pattern's new binding fields in first-seen order. Rows
/// added before a binding field first appears read it as the empty
/// sequence, which every consumer treats like an absent field.
///
/// When the input batch has exactly one logical row (the dominant
/// optimized plan: one tuple carrying the document root), input columns
/// that no binding overwrites are NOT replicated per output row — Finish
/// attaches them as broadcast columns sharing the input's storage, so a
/// pattern over the document root producing 10^5 binding rows copies
/// zero input sequences.
class PatternBatchBuilder {
 public:
  explicit PatternBatchBuilder(const TupleBatch& in);

  /// Appends one output row: input row `row`'s fields overlaid with
  /// `brow`'s bindings (each bound node as a singleton sequence).
  void Add(size_t row, const BindingRow& brow);

  size_t rows() const { return rows_; }

  /// Assembles the batch (counts rows() materialized tuples; the
  /// ExecStats batch count is taken where the batch is YIELDED between
  /// operators, so internal morsel batches don't inflate it). The
  /// builder is consumed.
  TupleBatch Finish();

 private:
  struct Col {
    Symbol field;
    /// Input column gathered as the row default, or -1 (binding-only,
    /// defaults to the empty sequence).
    int src;
    std::vector<xdm::Sequence> values;
  };

  Col* FindCol(Symbol field);
  void EnsureBindingColumn(Symbol field, size_t row);

  const TupleBatch& in_;
  /// Single-row input: input columns stay shared (broadcast) unless a
  /// binding overwrites them.
  bool broadcast_;
  std::vector<Col> cols_;
  size_t rows_ = 0;
};

/// Morsel-parallel evaluation of one TupleTreePattern operator over a
/// materialized input batch: logical row ranges become morsels, each row
/// is evaluated with the sequential algorithm into a PatternBatchBuilder,
/// and the per-morsel batches are concatenated in input-row order
/// (exactly the sequential loop's order — TupleBatch::Append moves the
/// uniquely-owned morsel columns). The caller has checked
/// in.rows() >= par.min_fanout.
[[nodiscard]]
Result<TupleBatch> EvalPatternTuplesParallel(const pattern::TreePattern& tp,
                                             const TupleBatch& in,
                                             PatternAlgo algo,
                                             const ParallelContext& par);

/// Number of pattern operator evaluations that actually fanned out to a
/// worker pool since process start. Process-wide, monotonic,
/// thread-safe. Exposed so tests can assert that a given execution path
/// did — or did not — parallelize.
int64_t ParallelEvaluationCountForTesting();

/// Pre-builds the lazily-constructed per-tag streams (and, for the
/// shredded algorithm, the relational NodeTable) that evaluating `tp`
/// with `algo` will touch, so worker threads only ever hit the built
/// fast path of Document's lazy getters.
void PrewarmPatternIndexes(const xml::Document& doc,
                           const pattern::TreePattern& tp, PatternAlgo algo);

}  // namespace xqtp::exec

#endif  // XQTP_EXEC_PARALLEL_H_
