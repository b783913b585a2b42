// Morsel-parallel driver for TupleTreePattern evaluation (see parallel.h
// for the architecture). Correctness rests on one fact: a pattern
// operator evaluates each input tuple independently, and the sequential
// kernel appends each tuple's binding rows in input-row order. Cutting
// the input into contiguous row ranges and concatenating the per-range
// output batches in range order therefore reproduces the sequential
// output bit for bit.
#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>

#include "common/exec_stats.h"
#include "common/fault_injection.h"
#include "common/interner.h"
#include "exec/cost_model.h"
#include "storage/node_table.h"
#include "xml/document.h"

namespace xqtp::exec {

namespace {
/// See ParallelEvaluationCountForTesting().
std::atomic<int64_t> g_parallel_evals{0};
}  // namespace

int64_t ParallelEvaluationCountForTesting() {
  return g_parallel_evals.load(std::memory_order_relaxed);
}

int ClampParallelThreads(size_t units, int threads, int min_fanout) {
  if (threads < 2) return threads;
  size_t per_unit = units / static_cast<size_t>(std::max(1, min_fanout));
  if (per_unit >= static_cast<size_t>(threads)) return threads;
  return std::max(2, static_cast<int>(per_unit));
}

int ThreadPool::ResolveThreads(int threads) {
  if (threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return threads < 1 ? 1 : threads;
}

ThreadPool::ThreadPool(int threads) {
  int n = ResolveThreads(threads);
  workers_.reserve(static_cast<size_t>(n - 1));
  for (int i = 1; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* fn = nullptr;
    {
      MutexLock lock(&mu_);
      // Explicit wait loop (not a predicate lambda): the guarded reads of
      // stop_/fn_/generation_ stay in this annotated scope, where the
      // thread-safety analysis can see mu_ is held.
      while (!stop_ && (fn_ == nullptr || generation_ == seen)) {
        work_cv_.Wait(mu_);
      }
      if (stop_) return;
      seen = generation_;
      fn = fn_;
    }
    for (;;) {
      int i;
      {
        MutexLock lock(&mu_);
        if (fn_ != fn || generation_ != seen || next_ >= count_) break;
        i = next_++;
      }
      (*fn)(i);
      MutexLock lock(&mu_);
      if (++done_ == count_) done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::Run(int count, const std::function<void(int)>& fn) {
  if (count <= 0) return;
  if (workers_.empty()) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  MutexLock run_lock(&run_mu_);
  {
    MutexLock lock(&mu_);
    fn_ = &fn;
    count_ = count;
    next_ = 0;
    done_ = 0;
    ++generation_;
  }
  work_cv_.NotifyAll();
  // The calling thread claims morsels alongside the workers.
  for (;;) {
    int i;
    {
      MutexLock lock(&mu_);
      if (next_ >= count_) break;
      i = next_++;
    }
    fn(i);
    MutexLock lock(&mu_);
    if (++done_ == count_) done_cv_.NotifyAll();
  }
  MutexLock lock(&mu_);
  while (done_ != count_) done_cv_.Wait(mu_);
  fn_ = nullptr;
}

namespace {

using pattern::PatternNode;
using pattern::PatternNodePtr;
using xml::Document;
using xml::Node;

/// Document-ordered stream of the nodes matching `test` on an element-ish
/// axis (the same per-tag indexes the Staircase/Twig joins consume).
const std::vector<const Node*>& StreamFor(const Document& doc,
                                          const NodeTest& test) {
  switch (test.kind) {
    case NodeTestKind::kName:
      return doc.ElementsByTag(test.name);
    case NodeTestKind::kAnyName:
      return doc.AllElements();
    case NodeTestKind::kText:
      return doc.TextNodes();
    case NodeTestKind::kAnyNode:
      return doc.AllNodes();
  }
  return doc.AllNodes();
}

struct MorselRange {
  size_t begin;
  size_t end;
};

/// Morsels per worker thread: finer than one per thread, so a slow range
/// does not leave the other workers idle at the end of the batch.
constexpr int kMorselsPerThread = 4;

/// Cuts `units` work units into contiguous morsels: about
/// threads * kMorselsPerThread of them, never smaller than
/// min_fanout / 4 units (finer morsels would be all coordination).
std::vector<MorselRange> PlanMorsels(size_t units, const ParallelContext& par) {
  int target = std::max(1, par.threads * kMorselsPerThread);
  size_t min_units =
      std::max<size_t>(1, static_cast<size_t>(par.min_fanout) / 4);
  size_t size = std::max(min_units,
                         (units + static_cast<size_t>(target) - 1) /
                             static_cast<size_t>(target));
  std::vector<MorselRange> morsels;
  morsels.reserve(units / size + 1);
  for (size_t lo = 0; lo < units; lo += size) {
    morsels.push_back({lo, std::min(units, lo + size)});
  }
  return morsels;
}

void PrewarmSteps(const Document& doc, const PatternNode& p) {
  if (p.axis == Axis::kAttribute) {
    if (p.test.kind == NodeTestKind::kName) doc.AttributesByName(p.test.name);
  } else {
    StreamFor(doc, p.test);
  }
  for (const PatternNodePtr& pred : p.predicates) PrewarmSteps(doc, *pred);
  if (p.next != nullptr) PrewarmSteps(doc, *p.next);
}

}  // namespace

void PrewarmPatternIndexes(const xml::Document& doc,
                           const pattern::TreePattern& tp, PatternAlgo algo) {
  if (tp.root == nullptr) return;
  PrewarmSteps(doc, *tp.root);
  // The cost model reads the lazily-computed document statistics. It
  // never picks the shredded algorithm, so only kShredded itself needs
  // the document's NodeTable.
  doc.Stats();
  if (algo == PatternAlgo::kShredded) storage::NodeTable::For(doc);
}

PatternBatchBuilder::PatternBatchBuilder(const TupleBatch& in)
    : in_(in), broadcast_(in.rows() == 1) {
  if (!broadcast_) {
    cols_.reserve(in.column_count());
    for (size_t c = 0; c < in.column_count(); ++c) {
      cols_.push_back(
          Col{in.columns()[c].column->field, static_cast<int>(c), {}});
    }
  }
}

PatternBatchBuilder::Col* PatternBatchBuilder::FindCol(Symbol field) {
  for (Col& c : cols_) {
    if (c.field == field) return &c;
  }
  return nullptr;
}

void PatternBatchBuilder::EnsureBindingColumn(Symbol field, size_t row) {
  if (FindCol(field) != nullptr) return;
  Col col;
  col.field = field;
  col.src = -1;
  if (broadcast_) {
    // A binding that overwrites an input field forces that column off the
    // shared path: materialize it (the copy-on-write "write"), keeping
    // the input value as the per-row default that a binding overwrites.
    for (size_t c = 0; c < in_.column_count(); ++c) {
      if (in_.columns()[c].column->field == field) {
        col.src = static_cast<int>(c);
        break;
      }
    }
  }
  col.values.assign(rows_, col.src >= 0
                               ? in_.Value(in_.columns()[col.src], row)
                               : xdm::Sequence{});
  cols_.push_back(std::move(col));
}

void PatternBatchBuilder::Add(size_t row, const BindingRow& brow) {
  for (const auto& [sym, node] : brow.fields) EnsureBindingColumn(sym, row);
  for (Col& c : cols_) {
    if (c.src >= 0) {
      c.values.push_back(in_.Value(in_.columns()[c.src], row));
    } else {
      c.values.emplace_back();
    }
  }
  for (const auto& [sym, node] : brow.fields) {
    FindCol(sym)->values.back() = xdm::Sequence{xdm::Item(node)};
  }
  ++rows_;
}

TupleBatch PatternBatchBuilder::Finish() {
  TupleBatch out(rows_);
  if (broadcast_) {
    for (size_t c = 0; c < in_.column_count(); ++c) {
      const TupleBatch::BoundColumn& bc = in_.columns()[c];
      if (FindCol(bc.column->field) != nullptr) continue;  // overwritten
      if (bc.column->values.size() == 1) {
        // The input column has exactly one physical value — share it.
        out.AddBroadcastColumn(bc.column);
      } else {
        // Single logical row selected out of a wider column: one copy of
        // one value, still broadcast to every output row.
        TupleColumn one;
        one.field = bc.column->field;
        one.values.push_back(in_.Value(bc, 0));
        out.AddBroadcastColumn(MakeColumn(std::move(one)));
      }
    }
  }
  for (Col& c : cols_) {
    TupleColumn col;
    col.field = c.field;
    col.values = std::move(c.values);
    out.AddOwnedColumn(std::move(col));
  }
  CountTuplesMaterialized(static_cast<int64_t>(rows_));
  return out;
}

Result<TupleBatch> EvalPatternTuplesParallel(const pattern::TreePattern& tp,
                                             const TupleBatch& in,
                                             PatternAlgo algo,
                                             const ParallelContext& par) {
  // Pre-warm every document reachable from the input rows' context field
  // before fanning out. One Find per batch, not one Get per row.
  const TupleBatch::BoundColumn* ctx_col = in.Find(tp.input_field);
  std::vector<const Document*> docs;
  if (ctx_col != nullptr) {
    for (size_t i = 0; i < in.rows(); ++i) {
      for (const xdm::Item& it : in.Value(*ctx_col, i)) {
        if (!it.IsNode()) continue;
        if (std::find(docs.begin(), docs.end(), it.node()->doc) ==
            docs.end()) {
          docs.push_back(it.node()->doc);
          PrewarmPatternIndexes(*it.node()->doc, tp, algo);
        }
      }
    }
  }

  ParallelContext eff = par;
  eff.threads = ClampParallelThreads(in.rows(), par.threads, par.min_fanout);
  std::vector<MorselRange> morsels = PlanMorsels(in.rows(), eff);
  // A single morsel runs on the calling thread; only a real fan-out
  // creates (or reuses) the per-query pool.
  ThreadPool* pool = morsels.size() >= 2 && par.pool ? par.pool(eff.threads)
                                                     : nullptr;
  struct Part {
    Result<TupleBatch> batch = TupleBatch{};
  };
  std::vector<Part> parts(morsels.size());
  std::vector<ExecStats> stats_slots(morsels.size());
  auto run_morsel = [&](int m) {
    ScopedExecStats scope;
    ScopedGovernor governed(par.governor);
    std::optional<StringInterner::ExecutionFreeze> freeze;
    if (!docs.empty()) freeze.emplace(*docs.front()->interner());
    const MorselRange& mr = morsels[static_cast<size_t>(m)];
    // Workers only READ the shared input batch (immutable columns) and
    // write into their own builder — no synchronization beyond the pool's.
    PatternBatchBuilder builder(in);
    // A cost-based choice is resolved per morsel: the chooser memoizes
    // per context shape and is not shared across threads.
    AlgoChooser chooser(tp);
    Status err = GovernorPoll();  // observe cancellation between morsels
#if XQTP_FAULT_INJECTION
    if (err.ok()) err = fault::Poll("exec.parallel.morsel");
#endif
    if (err.ok() && ctx_col == nullptr) {
      err = Status::Internal(
          "TupleTreePattern input tuple lacks the context field");
    }
    for (size_t i = mr.begin; i < mr.end && err.ok(); ++i) {
      // EvalPattern counts one pattern evaluation per row, exactly like
      // the sequential loop.
      const xdm::Sequence& ctx = in.Value(*ctx_col, i);
      Result<std::vector<BindingRow>> rows = EvalPattern(
          tp, ctx,
          algo == PatternAlgo::kCostBased ? chooser.Choose(ctx) : algo);
      if (!rows.ok()) {
        err = rows.status();
        break;
      }
      for (const BindingRow& row : *rows) builder.Add(i, row);
    }
    parts[static_cast<size_t>(m)].batch =
        err.ok() ? Result<TupleBatch>(builder.Finish())
                 : Result<TupleBatch>(std::move(err));
    stats_slots[static_cast<size_t>(m)] = scope.stats();
  };
  if (pool != nullptr) {
    g_parallel_evals.fetch_add(1, std::memory_order_relaxed);
    pool->Run(static_cast<int>(morsels.size()), run_morsel);
  } else {
    for (size_t m = 0; m < morsels.size(); ++m) {
      run_morsel(static_cast<int>(m));
    }
  }
  // Merge the per-morsel worker counters into the calling scope (if
  // any): the driver reports exactly the work its morsels did.
  if (ExecStats* s = CurrentExecStats()) {
    for (const ExecStats& w : stats_slots) s->Add(w);
  }

  for (Part& p : parts) {
    if (!p.batch.ok()) return p.batch.status();
  }
  // Concatenate in input-row order. Each morsel's columns are uniquely
  // owned, so Append moves the sequences; empty morsel batches (no
  // matches in the range) are skipped inside Append.
  TupleBatch out;
  for (Part& p : parts) out.Append(std::move(p.batch).value());
  return out;
}

}  // namespace xqtp::exec
