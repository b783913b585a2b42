// Quickstart: load a document, compile a query through the full pipeline,
// inspect the phases, and execute with each tree-pattern algorithm.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "engine/engine.h"

int main() {
  xqtp::engine::Engine engine;

  // 1. Load a document.
  auto doc = engine.LoadDocument("people",
                                 "<site><people>"
                                 "<person><name>Ann</name>"
                                 "<emailaddress>ann@example.com</emailaddress>"
                                 "</person>"
                                 "<person><name>Bob</name></person>"
                                 "<person><name>Cid</name>"
                                 "<emailaddress>cid@example.com</emailaddress>"
                                 "</person>"
                                 "</people></site>");
  if (!doc.ok()) {
    std::fprintf(stderr, "load: %s\n", doc.status().ToString().c_str());
    return 1;
  }

  // 2. Compile the paper's running example (query Q1a).
  auto query = engine.Compile("$d//person[emailaddress]/name");
  if (!query.ok()) {
    std::fprintf(stderr, "compile: %s\n", query.status().ToString().c_str());
    return 1;
  }

  // 3. Inspect every compilation phase (normalization, TPNF' rewriting,
  //    algebra, tree-pattern detection).
  std::printf("%s\n", engine.Explain(*query).c_str());

  // 4. Execute with each physical tree-pattern algorithm.
  xqtp::engine::Engine::GlobalMap globals{
      {"d", {xqtp::xdm::Item(doc.value()->root())}}};
  for (auto algo : {xqtp::exec::PatternAlgo::kNLJoin,
                    xqtp::exec::PatternAlgo::kStaircase,
                    xqtp::exec::PatternAlgo::kTwig}) {
    auto result = engine.Execute(*query, globals, {.algo = algo});
    if (!result.ok()) {
      std::fprintf(stderr, "execute: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-8s ->", xqtp::exec::PatternAlgoName(algo));
    for (const xqtp::xdm::Item& item : *result) {
      std::printf(" %s", item.StringValue().c_str());
    }
    std::printf("\n");
  }
  return 0;
}
