// Morsel-parallel driver scaling on per-row XMark corpus queries, per
// thread count. threads=1 is the plain sequential path; threads>=2
// routes through exec/parallel.h, which partitions a pattern operator's
// INPUT TUPLES into morsels. That is the driver's only strategy, so the
// benchmark uses the corpus queries whose pattern runs once per `for`
// binding (XQ2, XQ3, XQ14): on the factor-1.0 document each of them feeds
// its per-row pattern more than the default parallel_min_fanout (256)
// tuples. A pattern fed one tuple (the document root) never fans out, so
// the single-pattern corpus queries would time the sequential path at
// every thread count.
//
// Each per-row evaluation is small (a few child steps under one
// binding), so the per-morsel overhead — pool start, per-worker stats and
// chooser, batch concatenation — is of the same order as the work it
// splits. The records show whether the threads pay for it; run with
// --json=<path> to drop the perf trajectory records (ci/check.sh does
// this for BENCH_smoke.json).
//
// Thread counts here are *requested* counts; the driver clamps the
// effective width to the available morsel supply (exec::
// ClampParallelThreads; tests/parallel_eval_test.cc pins the
// arithmetic).
#include "bench_common.h"
#include "exec/parallel.h"
#include "workload/xmark_queries.h"

namespace xqtp::bench {
namespace {

constexpr const char* kPerRowQueries[] = {"XQ2", "XQ3", "XQ14"};

const xml::Document& Doc() { return XmarkDoc("xmark_parallel", 1.0); }

/// The corpus text of query `id`.
std::string CorpusQuery(const std::string& id) {
  for (const workload::XmarkQuery& q : workload::XmarkQueryCorpus()) {
    if (q.id == id) return q.text;
  }
  return {};
}

/// True when one run of `query` with `opts` hands a pattern to the
/// driver's worker pool — a threads>=2 row that never fans out would
/// time the sequential path under a parallel label.
bool ReachesDriver(const std::string& query, const exec::EvalOptions& opts) {
  engine::Engine& e = SharedEngine();
  auto cq = e.Compile(query);
  if (!cq.ok()) return false;
  engine::Engine::GlobalMap globals;
  for (const std::string& g : cq->GlobalNames()) {
    globals[g] = {xdm::Item(Doc().root())};
  }
  int64_t before = exec::ParallelEvaluationCountForTesting();
  return e.Execute(*cq, globals, opts).ok() &&
         exec::ParallelEvaluationCountForTesting() > before;
}

void Register() {
  for (const char* id : kPerRowQueries) {
    for (exec::PatternAlgo algo :
         {exec::PatternAlgo::kCostBased, exec::PatternAlgo::kStaircase}) {
      for (int threads : {1, 2, 4}) {
        std::string name = std::string("Parallel/") + id + "/t" +
                           std::to_string(threads) + "/" + AlgoTag(algo);
        std::string query = CorpusQuery(id);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [query, algo, threads](benchmark::State& state) {
              exec::EvalOptions opts;
              opts.algo = algo;
              opts.threads = threads;
              if (threads > 1 && !ReachesDriver(query, opts)) {
                state.SkipWithError("query never reached the parallel driver");
                return;
              }
              RunQueryBenchmark(state, query, Doc(), opts);
            })
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

}  // namespace
}  // namespace xqtp::bench

int main(int argc, char** argv) {
  xqtp::bench::Register();
  return xqtp::bench::BenchMain(argc, argv);
}
