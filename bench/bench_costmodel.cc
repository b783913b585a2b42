// Cost-model benchmark (extension of the paper's conclusion): compares
// every fixed algorithm against the cost-based per-operator choice across
// the archetype workloads of Section 5 and the 25 queries of the
// end-to-end serving benchmark (e2ebench/). A good cost model should track
// the per-query winner, never the per-query loser.
//
//  - CostModel/<archetype>/<algo>: the Section 5 archetypes on MemBeR
//    documents (NL / SC / TJ / ST / CB).
//  - CostModel/e2e/<id>: the 14 XMark corpus queries and the 5 Fig. 6
//    descendant forms on an XMark factor-1.0 document, and QE1-QE6
//    (wrapped in fn:count, as e2ebench's member-twig runs them) on a
//    157k-node MemBeR document of member-twig's shape. Each iteration
//    runs the query under NL, SC, TJ and CB in turn, and the counters
//    report each one's median time (us) and CB's over the best fixed
//    algorithm's: on a shared host the speed drifts by 10-30% within
//    seconds, more than the gaps the cost model has to resolve, and only
//    interleaving every execution makes the four medians comparable.
//    JSON records carry the medians as `ns`, variant "median".
//
// Every leg runs at threads = 1. EXPERIMENTS.md E7 is generated from this
// binary; ci/check.sh runs it in the bench-smoke leg.
#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_common.h"
#include "workload/xmark_queries.h"

namespace xqtp::bench {
namespace {

struct Archetype {
  const char* name;
  const char* query;
  bool deep_doc;
};

constexpr Archetype kArchetypes[] = {
    {"rooted-chain", "$input/desc::t01[child::t02[child::t03[child::t04]]]",
     false},
    {"branchy-desc",
     "$input/desc::t01[desc::t02[desc::t03]/desc::t04[desc::t03]]", false},
    {"positional", "$input/desc::t01/child::t02[1]/child::t03[child::t04]",
     false},
    {"selective-chain",
     "$input/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]",
     true},
};

const xml::Document& DocFor(const Archetype& a) {
  if (a.deep_doc) {
    return MemberDoc("member_deep_cb", 50000, 15, 1);
  }
  return MemberDoc("member_wide_cb", 150000, 5, 100, 75);
}

/// member-twig's document shape: 2.2 MB of MemBeR text, depth 5, 100
/// tags, one planted twig per 2,000 nodes.
const xml::Document& MemberTwigDoc() {
  const int nodes = workload::NodeCountForBytes(2200000);
  return MemberDoc("member_twig_cb", nodes, 5, 100, nodes / 2000);
}

struct E2eQuery {
  std::string id;
  std::string text;
  bool member;
};

/// The e2e serving benchmark's 25 warm-workload queries.
std::vector<E2eQuery> E2eQueries() {
  std::vector<E2eQuery> qs;
  for (const workload::XmarkQuery& q : workload::XmarkQueryCorpus()) {
    qs.push_back({q.id, q.text, false});
  }
  const std::pair<const char*, const char*> kFig6[] = {
      {"XM-name", "$input//person//name"},
      {"XM-increase", "$input//open_auction//increase"},
      {"XM-price", "$input//closed_auction//price"},
      {"XM-location", "$input//item//location"},
      {"XM-interest", "$input//person[emailaddress]//interest"},
  };
  for (const auto& [id, text] : kFig6) qs.push_back({id, text, false});
  const std::pair<const char*, const char*> kQE[] = {
      {"QE1", "$input/desc::t01[child::t02[child::t03[child::t04]]]"},
      {"QE2", "$input/desc::t01/child::t02[1]/child::t03[child::t04]"},
      {"QE3",
       "$input/desc::t01[child::t02[child::t03]/child::t04[child::t03]]"},
      {"QE4", "$input/desc::t01[desc::t02[desc::t03[desc::t04]]]"},
      {"QE5", "$input/desc::t01/desc::t02[1]/desc::t03[desc::t04]"},
      {"QE6", "$input/desc::t01[desc::t02[desc::t03]/desc::t04[desc::t03]]"},
  };
  for (const auto& [id, text] : kQE) {
    qs.push_back({id, std::string("fn:count(") + text + ")", true});
  }
  return qs;
}

/// Runs `q` under NL, SC, TJ and CB in turn on every iteration and
/// reports the four median times (see the header).
void RunInterleaved(benchmark::State& state, const E2eQuery& q) {
  constexpr exec::PatternAlgo kAlgos[] = {
      exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kStaircase,
      exec::PatternAlgo::kTwig, exec::PatternAlgo::kCostBased};
  engine::Engine& e = SharedEngine();
  const xml::Document& doc =
      q.member ? MemberTwigDoc() : XmarkDoc("xmark_cb", 1.0);
  auto cq = e.Compile(q.text);
  if (!cq.ok()) {
    state.SkipWithError(cq.status().ToString().c_str());
    return;
  }
  engine::Engine::GlobalMap globals;
  for (const std::string& g : cq->GlobalNames()) {
    globals[g] = {xdm::Item(doc.root())};
  }
  std::vector<double> ns[4];
  for (auto _ : state) {
    for (int a = 0; a < 4; ++a) {
      exec::EvalOptions opts;
      opts.algo = kAlgos[a];
      opts.threads = 1;
      auto t0 = std::chrono::steady_clock::now();
      auto res = e.Execute(*cq, globals, opts);
      auto t1 = std::chrono::steady_clock::now();
      if (!res.ok()) {
        state.SkipWithError(res.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(res);
      ns[a].push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
  }
  double median[4];
  for (int a = 0; a < 4; ++a) {
    std::sort(ns[a].begin(), ns[a].end());
    median[a] = ns[a][ns[a].size() / 2];
    state.counters[AlgoTag(kAlgos[a])] = median[a] / 1000;
  }
  state.counters["CB/best"] =
      median[3] / std::min({median[0], median[1], median[2]});
  if (JsonPath().empty()) return;
  for (int a = 0; a < 4; ++a) {
    exec::EvalOptions opts;
    opts.algo = kAlgos[a];
    opts.threads = 1;
    ScopedExecStats scope;
    (void)e.Execute(*cq, globals, opts);
    JsonRecord r;
    r.bench = BenchName();
    r.query = q.text;
    r.algo = exec::PatternAlgoName(kAlgos[a]);
    r.variant = "median";
    r.ns = median[a];
    r.nodes_visited = scope.stats().nodes_visited;
    RecordJson(std::move(r));
  }
}

void Register() {
  for (const Archetype& a : kArchetypes) {
    for (exec::PatternAlgo algo :
         {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kStaircase,
          exec::PatternAlgo::kTwig, exec::PatternAlgo::kStream,
          exec::PatternAlgo::kCostBased}) {
      std::string name =
          std::string("CostModel/") + a.name + "/" + AlgoTag(algo);
      std::string query = a.query;
      const Archetype* ap = &a;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [query, algo, ap](benchmark::State& state) {
            RunQueryBenchmark(state, query, DocFor(*ap), algo);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
  for (const E2eQuery& q : E2eQueries()) {
    benchmark::RegisterBenchmark(
        ("CostModel/e2e/" + q.id).c_str(),
        [q](benchmark::State& state) { RunInterleaved(state, q); })
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace
}  // namespace xqtp::bench

int main(int argc, char** argv) {
  xqtp::bench::Register();
  return xqtp::bench::BenchMain(argc, argv);
}
