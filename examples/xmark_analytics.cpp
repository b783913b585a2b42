// XMark analytics: generates an auction-site document and runs a small
// analytic workload over it — the kind of data-intensive XML application
// the paper's introduction motivates. Prints results plus wall-clock time
// per algorithm.
//
//   $ ./build/examples/xmark_analytics [scale-factor]
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "engine/engine.h"
#include "workload/xmark_gen.h"

namespace {

struct Report {
  const char* label;
  const char* query;
};

constexpr Report kWorkload[] = {
    {"persons", "fn:count($input/site/people/person)"},
    {"reachable persons (have an email address)",
     "fn:count($input//person[emailaddress])"},
    {"interests of reachable persons",
     "fn:count($input/site/people/person[emailaddress]/profile/interest)"},
    {"bidders across open auctions",
     "fn:count($input/site/open_auctions/open_auction/bidder)"},
    {"auctions that already have bidders",
     "fn:count($input//open_auction[bidder])"},
    {"items with a mailbox that received mail",
     "fn:count($input//item[mailbox[mail]])"},
    {"first bidder increase of the first auction",
     "$input//open_auction[1]/bidder[1]/increase"},
    {"closed-auction prices named exactly 100",
     "fn:count($input//closed_auction[price = \"100\"])"},
};

}  // namespace

int main(int argc, char** argv) {
  double factor = argc > 1 ? std::atof(argv[1]) : 0.2;
  xqtp::engine::Engine engine;

  std::printf("generating XMark document (factor %.2f)...\n", factor);
  xqtp::workload::XmarkParams params;
  params.factor = factor;
  const xqtp::xml::Document* doc = engine.AddDocument(
      "auction", xqtp::workload::GenerateXmark(params, engine.interner()));
  std::printf("document: %zu nodes\n\n", doc->node_count());

  for (const Report& r : kWorkload) {
    std::printf("%s\n  %s\n", r.label, r.query);
    auto cq = engine.Compile(r.query);
    if (!cq.ok()) {
      std::printf("  compile error: %s\n", cq.status().ToString().c_str());
      continue;
    }
    xqtp::engine::Engine::GlobalMap globals{
        {"input", {xqtp::xdm::Item(doc->root())}}};
    for (auto algo : {xqtp::exec::PatternAlgo::kNLJoin,
                      xqtp::exec::PatternAlgo::kStaircase,
                      xqtp::exec::PatternAlgo::kTwig}) {
      auto start = std::chrono::steady_clock::now();
      auto res = engine.Execute(*cq, globals, {.algo = algo});
      auto elapsed = std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start);
      if (!res.ok()) {
        std::printf("  %-8s error: %s\n", xqtp::exec::PatternAlgoName(algo),
                    res.status().ToString().c_str());
        continue;
      }
      std::string value =
          res->empty() ? "()" : (*res)[0].StringValue().substr(0, 40);
      std::printf("  %-8s %8.3f ms   -> %s%s\n",
                  xqtp::exec::PatternAlgoName(algo), elapsed.count(),
                  value.c_str(), res->size() > 1 ? " ..." : "");
    }
    std::printf("\n");
  }
  return 0;
}
