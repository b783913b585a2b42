// Concurrency contract tests: compilation is single-threaded (it mutates
// the engine's interner), but compiled queries may execute concurrently
// against shared documents — the lazily-built per-tag indexes and
// statistics are built under a lock.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "exec/parallel.h"
#include "workload/member_gen.h"

namespace xqtp {
namespace {

TEST(ConcurrencyTest, ParallelExecutionOverColdIndexes) {
  engine::Engine e;
  workload::MemberParams p;
  p.node_count = 30000;
  p.max_depth = 5;
  p.num_tags = 100;
  p.plant_twigs = 15;
  const xml::Document* d =
      e.AddDocument("m", workload::GenerateMember(p, e.interner()));

  // Compile everything up front (single-threaded phase).
  const char* queries[] = {
      "$input//t01[t02]/t03",
      "$input/desc::t04[desc::t03]",
      "fn:count($input//t02)",
      "$input//t01[1]/t02",
      "for $x in $input//t01 where $x/t02 return $x/t02/t03",
  };
  std::vector<engine::CompiledQuery> compiled;
  for (const char* q : queries) {
    auto cq = e.Compile(q);
    ASSERT_TRUE(cq.ok()) << q;
    compiled.push_back(std::move(cq).value());
  }

  // Reference results, computed before going parallel.
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(d->root())}}};
  std::vector<size_t> expected;
  for (const engine::CompiledQuery& cq : compiled) {
    auto res = e.Execute(cq, globals, {.algo = exec::PatternAlgo::kNLJoin});
    ASSERT_TRUE(res.ok());
    expected.push_back(res->size());
  }

  // Fresh document with cold indexes, then hammer it from many threads
  // with the index-based algorithms (first accesses race to build).
  const xml::Document* cold =
      e.AddDocument("cold", workload::GenerateMember(p, e.interner()));
  engine::Engine::GlobalMap cold_globals{
      {"input", {xdm::Item(cold->root())}}};

  std::atomic<int> failures{0};
  auto worker = [&](int tid) {
    for (int round = 0; round < 8; ++round) {
      size_t qi = static_cast<size_t>((tid + round) % 5);
      exec::PatternAlgo algo =
          (tid + round) % 2 == 0 ? exec::PatternAlgo::kStaircase
                                 : exec::PatternAlgo::kTwig;
      auto res = e.Execute(compiled[qi], cold_globals, {.algo = algo});
      if (!res.ok() || res->size() != expected[qi]) {
        // Same generator parameters and seed -> same document shape, so
        // the cold document must give the same cardinalities.
        ++failures;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Two morsel-parallel queries executing concurrently: each Execute spins
// up its own per-query pool (threads = 2), so four workers total hammer
// the same document's indexes while both drivers concatenate morsel
// batches. Both queries are per-row (a pattern under a `for`), the shape
// the tuple-level driver partitions; every round must fan out.
TEST(ConcurrencyTest, TwoMorselParallelQueriesConcurrently) {
  engine::Engine e;
  workload::MemberParams p;
  p.node_count = 30000;
  p.max_depth = 5;
  p.num_tags = 100;
  p.plant_twigs = 15;
  const xml::Document* d =
      e.AddDocument("m", workload::GenerateMember(p, e.interner()));

  auto q1 = e.Compile("for $x in $input//t01 return $x/t02[1]/t03");
  auto q2 = e.Compile("for $x in $input/desc::t04 where $x/t03 return $x/*");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(d->root())}}};

  exec::EvalOptions opts;
  opts.threads = 2;
  opts.parallel_min_fanout = 4;

  // Sequential references.
  exec::EvalOptions seq = opts;
  seq.threads = 1;
  auto r1 = e.Execute(*q1, globals, seq);
  auto r2 = e.Execute(*q2, globals, seq);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_FALSE(r1->empty());
  ASSERT_FALSE(r2->empty());

  constexpr int kRounds = 8;
  std::atomic<int> failures{0};
  auto worker = [&](const engine::CompiledQuery& cq, size_t expected) {
    for (int round = 0; round < kRounds; ++round) {
      auto res = e.Execute(cq, globals, opts);
      if (!res.ok() || res->size() != expected) ++failures;
    }
  };
  int64_t before = exec::ParallelEvaluationCountForTesting();
  std::thread t1(worker, std::cref(*q1), r1->size());
  std::thread t2(worker, std::cref(*q2), r2->size());
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(exec::ParallelEvaluationCountForTesting() - before, 2 * kRounds)
      << "a round ran without reaching the parallel driver";
}

TEST(ConcurrencyTest, ParallelStatsAndIndexAccess) {
  engine::Engine e;
  workload::MemberParams p;
  p.node_count = 20000;
  p.max_depth = 6;
  p.num_tags = 50;
  const xml::Document* d =
      e.AddDocument("m", workload::GenerateMember(p, e.interner()));

  std::atomic<int> failures{0};
  auto worker = [&] {
    const auto& stats = d->Stats();
    if (stats.node_count < 20000) ++failures;
    for (int t = 1; t <= 50; ++t) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "t%02d", t);
      Symbol s = e.interner()->Lookup(buf);
      if (s == kInvalidSymbol) continue;
      const auto& stream = d->ElementsByTag(s);
      // Document order invariant must hold regardless of which thread
      // built the index.
      for (size_t i = 0; i + 1 < stream.size(); ++i) {
        if (stream[i]->pre >= stream[i + 1]->pre) ++failures;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace xqtp
