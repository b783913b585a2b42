// Algorithm picker: demonstrates the paper's Section 5 conclusion — there
// is no single best tree-pattern algorithm. For a set of query/document
// archetypes, times all three algorithms and reports the winner together
// with the heuristic the measurements support.
//
//   $ ./build/examples/algorithm_picker
#include <chrono>
#include <cstdio>
#include <string>

#include "engine/engine.h"
#include "workload/member_gen.h"

namespace {

double TimeMs(xqtp::engine::Engine* engine,
              const xqtp::engine::CompiledQuery& cq,
              const xqtp::engine::Engine::GlobalMap& globals,
              xqtp::exec::PatternAlgo algo, int reps) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    auto res = engine->Execute(cq, globals, {.algo = algo});
    if (!res.ok()) return -1;
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
             .count() /
         reps;
}

struct Archetype {
  const char* description;
  const char* heuristic;
  const char* query;
  bool deep_doc;
};

constexpr Archetype kArchetypes[] = {
    {"simple rooted path (QE1-like)",
     "SC and TJ are close; NL loses badly on rooted patterns",
     "$input/desc::t01[child::t02[child::t03[child::t04]]]", false},
    {"branchy descendant twig (QE6-like)",
     "TJ stays well-behaved where SC's per-candidate probes degrade",
     "$input/desc::t01[desc::t02[desc::t03]/desc::t04[desc::t03]]", false},
    {"positional step outside the fragment (QE2-like)",
     "patterns embedded in maps: index algorithms pay per-step scans",
     "$input/desc::t01/child::t02[1]/child::t03[child::t04]", false},
    {"highly selective positional chain (Section 5.3)",
     "NL only touches the first-child chain; SC/TJ scan the index per step",
     "$input/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]",
     true},
};

}  // namespace

int main() {
  xqtp::engine::Engine engine;

  xqtp::workload::MemberParams wide;
  wide.node_count = 150000;
  wide.max_depth = 5;
  wide.num_tags = 100;
  wide.plant_twigs = 75;
  const xqtp::xml::Document* wide_doc = engine.AddDocument(
      "wide", xqtp::workload::GenerateMember(wide, engine.interner()));

  xqtp::workload::MemberParams deep;
  deep.node_count = 50000;
  deep.max_depth = 15;
  deep.num_tags = 1;
  const xqtp::xml::Document* deep_doc = engine.AddDocument(
      "deep", xqtp::workload::GenerateMember(deep, engine.interner()));

  std::printf("%-52s %9s %9s %9s %9s %9s   winner\n", "archetype",
              "NL (ms)", "SC (ms)", "TJ (ms)", "ST (ms)", "CB (ms)");
  for (const Archetype& a : kArchetypes) {
    auto cq = engine.Compile(a.query);
    if (!cq.ok()) {
      std::printf("%-52s compile error: %s\n", a.description,
                  cq.status().ToString().c_str());
      continue;
    }
    const xqtp::xml::Document* doc = a.deep_doc ? deep_doc : wide_doc;
    xqtp::engine::Engine::GlobalMap globals{
        {"input", {xqtp::xdm::Item(doc->root())}}};
    double nl = TimeMs(&engine, *cq, globals, xqtp::exec::PatternAlgo::kNLJoin, 5);
    double sc =
        TimeMs(&engine, *cq, globals, xqtp::exec::PatternAlgo::kStaircase, 5);
    double tj = TimeMs(&engine, *cq, globals, xqtp::exec::PatternAlgo::kTwig, 5);
    double st = TimeMs(&engine, *cq, globals, xqtp::exec::PatternAlgo::kStream, 5);
    double cb =
        TimeMs(&engine, *cq, globals, xqtp::exec::PatternAlgo::kCostBased, 5);
    const char* winner = (nl <= sc && nl <= tj) ? "NLJoin"
                         : (sc <= tj)           ? "SCJoin"
                                                : "TwigJoin";
    std::printf("%-52s %9.3f %9.3f %9.3f %9.3f %9.3f   %s\n", a.description,
                nl, sc, tj, st, cb, winner);
    std::printf("    -> %s\n", a.heuristic);
  }
  std::printf(
      "\nConclusion (paper Section 5): no single algorithm dominates — a "
      "cost model is needed.\n");
  return 0;
}
