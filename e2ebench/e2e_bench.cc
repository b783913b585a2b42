// End-to-end serving benchmark for the xqtp engine.
//
// One closed-loop client drives engine::Engine through its public API
// under the library defaults (EngineOptions{}, EvalOptions{}: NLJoin,
// threads = 0); member-twig alone runs at threads = 1 (see
// MemberTwigEval). A request is the serving path a client sees:
// Engine::ExecuteQuery (fingerprint, plan-cache lookup or compile,
// execution) followed by serializing the result with xml::Serialize.
// Every answer is compared, byte for byte, with a reference answer the
// Core interpreter computed before timing.
//
//   e2e_bench --workload xmark-serve|xmark-adhoc|member-twig
//             --seed N --seconds S --trace 0|1 [--git-sha SHA]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced blocks of requests and prints the per-layer split, measured
// from outside the library by timing calls into each module's public
// functions. The last line of stdout is one JSON object; the lines before
// it start with "# " and carry the run header. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algebra/compile.h"
#include "algebra/ops.h"
#include "algebra/optimize.h"
#include "common/exec_stats.h"
#include "core/ast.h"
#include "core/normalize.h"
#include "core/rewrite.h"
#include "engine/engine.h"
#include "exec/parallel.h"
#include "workload/member_gen.h"
#include "workload/variants.h"
#include "workload/xmark_gen.h"
#include "workload/xmark_queries.h"
#include "xml/serializer.h"
#include "xquery/parser.h"

#ifndef XQTP_BENCH_BUILD_TYPE
#define XQTP_BENCH_BUILD_TYPE "unknown"
#endif

namespace xqtp::e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- Arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "xmark-serve|xmark-adhoc|member-twig --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

// ---- Seeded inputs ----------------------------------------------------------

/// Independent stream seeds from the one --seed (splitmix64 finalizer), so
/// the documents, the request mix and the ad-hoc literals do not share a
/// generator.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum Stream : uint64_t { kDocStream, kMixStream, kLiteralStream };

/// Uniform pick in [0, n); the modulo bias is negligible for these n.
size_t Pick(std::mt19937_64& rng, size_t n) { return rng() % n; }

// ---- Workload definitions ---------------------------------------------------

/// A query with a stable id; the unit of the warm mixes and of the
/// per-query trace. `weight` is its share of the mix, in slots.
struct NamedQuery {
  std::string id;
  std::string text;
  int weight = 1;
};

/// The Fig. 6 descendant forms (the paper's child-to-descendant swaps).
std::vector<NamedQuery> Fig6DescendantForms() {
  return {
      {"XM-name", "$input//person//name"},
      {"XM-increase", "$input//open_auction//increase"},
      {"XM-price", "$input//closed_auction//price"},
      {"XM-location", "$input//item//location"},
      {"XM-interest", "$input//person[emailaddress]//interest"},
  };
}

std::vector<NamedQuery> XmarkServeQueries() {
  std::vector<NamedQuery> qs;
  for (const workload::XmarkQuery& q : workload::XmarkQueryCorpus()) {
    qs.push_back({q.id, q.text});
  }
  for (NamedQuery& q : Fig6DescendantForms()) qs.push_back(std::move(q));
  return qs;
}

/// Table 1's QE1..QE6, each wrapped in fn:count so the workload measures
/// the pattern layer rather than serializing whole t01 subtrees. The
/// descendant twigs QE4..QE6, where the paper's best algorithm flips
/// between SC and TJ, weigh double. The odd total weight (9) also keeps
/// the median off a boundary between two queries: under a uniform mix of
/// six queries, p50 would jump between the third and the fourth fastest
/// query from seed to seed.
std::vector<NamedQuery> MemberTwigQueries() {
  const NamedQuery kQE[] = {
      {"QE1", "$input/desc::t01[child::t02[child::t03[child::t04]]]"},
      {"QE2", "$input/desc::t01/child::t02[1]/child::t03[child::t04]"},
      {"QE3",
       "$input/desc::t01[child::t02[child::t03]/child::t04[child::t03]]"},
      {"QE4", "$input/desc::t01[desc::t02[desc::t03[desc::t04]]]", 2},
      {"QE5", "$input/desc::t01/desc::t02[1]/desc::t03[desc::t04]", 2},
      {"QE6", "$input/desc::t01[desc::t02[desc::t03]/desc::t04[desc::t03]]",
       2},
  };
  std::vector<NamedQuery> qs;
  for (const NamedQuery& q : kQE) {
    qs.push_back({q.id, "fn:count(" + q.text + ")", q.weight});
  }
  return qs;
}

/// An ad-hoc template: `text` holds "{}" where the per-request literal
/// goes; `ref_text` is the equivalent form whose Core-interpreter answer
/// is the reference (the plain path for the §5.1 variants).
struct AdhocTemplate {
  std::string text;
  std::string ref_text;
  const std::vector<std::string>* literals;
};

const std::vector<std::string> kPositions = {"1", "2", "3", "4",
                                             "5", "7", "10", "20"};
const std::vector<std::string> kPrices = {"0",   "25",  "50",  "100",
                                          "200", "300", "400", "550"};
const std::vector<std::string> kIncomes = {"15000", "25000", "40000",
                                           "50000", "60000", "75000",
                                           "90000", "99000"};
const std::vector<std::string> kKeywords = {"number 1", "number 2", "number 3",
                                            "number 4", "number 5", "number 6",
                                            "number 7", "number 8"};

/// The XMark corpus with one literal slot per query (a position, a
/// threshold or a keyword), then the 20 §5.1 path variants with a
/// positional predicate on their last step.
std::vector<AdhocTemplate> AdhocTemplates() {
  const std::pair<const char*, const std::vector<std::string>*> kCorpus[] = {
      // XQ1
      {"$input/site/people/person[{}]/name", &kPositions},
      // XQ2
      {"for $b in $input/site/open_auctions/open_auction "
       "return $b/bidder[{}]/increase",
       &kPositions},
      // XQ3
      {"for $a in $input/site/open_auctions/open_auction "
       "where $a/current > $a/initial + {} return $a/current",
       &kPrices},
      // XQ4
      {"fn:count($input//open_auction[bidder[{}]])", &kPositions},
      // XQ5
      {"fn:count($input/site/closed_auctions/closed_auction[price >= {}])",
       &kPrices},
      // XQ6
      {"fn:count($input/site/regions/*/item[{}])", &kPositions},
      // XQ7
      {"fn:count($input/site/regions/*/item/mailbox/mail[{}])", &kPositions},
      // XQ8
      {"fn:count($input/site/people/person[emailaddress]"
       "[profile/interest[{}]])",
       &kPositions},
      // XQ13
      {"$input/site/regions/*/item[{}]/name", &kPositions},
      // XQ14
      {"for $i in $input/site/regions/*/item "
       "where fn:contains($i/description, \"{}\") return $i/name",
       &kKeywords},
      // XQ15
      {"$input/site/open_auctions/open_auction/bidder[{}]/date", &kPositions},
      // XQ17
      {"fn:count(for $p in $input/site/people/person "
       "where fn:empty($p/profile/interest[{}]) return $p)",
       &kPositions},
      // XQ19
      {"$input//item[{}]//name", &kPositions},
      // XQ20
      {"(fn:count($input//person[profile/@income >= {}]), "
       "fn:count($input//person[profile/@income < {}]))",
       &kIncomes},
  };
  std::vector<AdhocTemplate> out;
  for (const auto& [text, literals] : kCorpus) {
    out.push_back({text, text, literals});
  }
  std::vector<std::string> variants = workload::GeneratePathVariants(20);
  for (const std::string& v : variants) {
    out.push_back({v + "[{}]", variants[0] + "[{}]", &kPositions});
  }
  return out;
}

std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  for (size_t pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size())) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

// ---- Requests ---------------------------------------------------------------

struct Request {
  std::string text;
  size_t ref = 0;  ///< index into the reference answers
};

/// Everything a run needs that the benchmark makes before set-up: the
/// document text, the request generator and the reference answers.
class Workload {
 public:
  virtual ~Workload() = default;
  std::string name;
  std::string doc_text;
  /// Reference texts; ComputeReferences fills `references` from them.
  std::vector<std::string> ref_texts;
  std::vector<std::string> references;
  /// Options of every timed execution: the library defaults, except on
  /// member-twig.
  exec::EvalOptions eval;

  /// The next request of the seeded mix.
  virtual void Next(Request* req) = 0;
  /// The warm-up pass's request number `done`, or false once the pass is
  /// complete. Every warm-up request fills the plan cache.
  virtual bool NextWarmup(const engine::Engine& e, int64_t done,
                          Request* req) = 0;
};

/// A fixed query set drawn by weight: the warm-cache workloads.
class WarmMix : public Workload {
 public:
  WarmMix(std::vector<NamedQuery> queries, uint64_t seed)
      : queries_(std::move(queries)), rng_(DeriveSeed(seed, kMixStream)) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      ref_texts.push_back(queries_[i].text);
      slots_.insert(slots_.end(), static_cast<size_t>(queries_[i].weight), i);
    }
  }
  void Next(Request* req) override {
    size_t i = slots_[Pick(rng_, slots_.size())];
    *req = {queries_[i].text, i};
  }
  /// Each distinct query once.
  bool NextWarmup(const engine::Engine&, int64_t done, Request* req) override {
    size_t i = static_cast<size_t>(done);
    if (i >= queries_.size()) return false;
    *req = {queries_[i].text, i};
    return true;
  }

 private:
  std::vector<NamedQuery> queries_;
  std::vector<size_t> slots_;  ///< query index per mix slot
  std::mt19937_64 rng_;
};

/// Every request a distinct text: a template, a seeded literal, and the
/// document bound to a fresh variable name ($d<n>), which makes the text
/// unique without changing the answer.
class AdhocMix : public Workload {
 public:
  explicit AdhocMix(uint64_t seed)
      : templates_(AdhocTemplates()),
        mix_rng_(DeriveSeed(seed, kMixStream)),
        literal_rng_(DeriveSeed(seed, kLiteralStream)) {
    // One reference per distinct (reference text, literal).
    std::map<std::string, size_t> ref_of;
    for (size_t t = 0; t < templates_.size(); ++t) {
      const AdhocTemplate& tmpl = templates_[t];
      std::vector<size_t> refs;
      for (const std::string& lit : *tmpl.literals) {
        std::string ref = ReplaceAll(tmpl.ref_text, "{}", lit);
        auto [it, inserted] = ref_of.emplace(ref, ref_texts.size());
        if (inserted) ref_texts.push_back(ref);
        refs.push_back(it->second);
      }
      ref_index_.push_back(std::move(refs));
    }
  }
  void Next(Request* req) override {
    size_t t = Pick(mix_rng_, templates_.size());
    const AdhocTemplate& tmpl = templates_[t];
    size_t l = Pick(literal_rng_, tmpl.literals->size());
    std::string var = "$d" + std::to_string(next_salt_++);
    req->text = "let " + var + " := $input return " +
                ReplaceAll(ReplaceAll(tmpl.text, "{}", (*tmpl.literals)[l]),
                           "$input", var);
    req->ref = ref_index_[t][l];
  }
  /// The mix itself, until the plan cache has begun to evict.
  bool NextWarmup(const engine::Engine& e, int64_t done,
                  Request* req) override {
    // Snapshot locks every shard; poll it only every 64 requests.
    if (done % 64 == 0 && e.plan_cache_stats().evictions > 0) return false;
    Next(req);
    return true;
  }

 private:
  std::vector<AdhocTemplate> templates_;
  std::vector<std::vector<size_t>> ref_index_;
  std::mt19937_64 mix_rng_;
  std::mt19937_64 literal_rng_;
  int64_t next_salt_ = 0;
};

// ---- Documents --------------------------------------------------------------

std::string XmarkText(double factor, uint64_t seed) {
  StringInterner interner;
  workload::XmarkParams p;
  p.factor = factor;
  p.seed = DeriveSeed(seed, kDocStream);
  return xml::Serialize(workload::GenerateXmark(p, &interner)->root());
}

std::string MemberText(uint64_t seed) {
  StringInterner interner;
  workload::MemberParams p;
  p.node_count = workload::NodeCountForBytes(2200000);
  p.max_depth = 5;
  p.num_tags = 100;
  p.plant_twigs = p.node_count / 2000;
  p.seed = DeriveSeed(seed, kDocStream);
  return xml::Serialize(workload::GenerateMember(p, &interner)->root());
}

/// member-twig runs at threads = 1, the rest of EvalOptions at its
/// defaults. Its queries take about 1 ms, and at threads = 0 each fans out
/// over every core, so on a shared 4-core host its latencies followed the
/// other tenants' load: p99 spread by 19-28% over ten seeds, and p50 of
/// one seed ranged from 0.9 to 2.9 ms. At threads = 1 p99 spread by 6-13%.
/// It also measures the pattern algorithms without the driver's root
/// fan-out, which is this workload's purpose.
exec::EvalOptions MemberTwigEval() {
  exec::EvalOptions o;
  o.threads = 1;
  return o;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  std::unique_ptr<Workload> w;
  if (name == "xmark-serve") {
    w = std::make_unique<WarmMix>(XmarkServeQueries(), seed);
    w->doc_text = XmarkText(1.0, seed);
  } else if (name == "member-twig") {
    w = std::make_unique<WarmMix>(MemberTwigQueries(), seed);
    w->doc_text = MemberText(seed);
    w->eval = MemberTwigEval();
  } else if (name == "xmark-adhoc") {
    w = std::make_unique<AdhocMix>(seed);
    w->doc_text = XmarkText(0.02, seed);
  } else {
    Usage(("unknown workload " + name).c_str());
  }
  w->name = name;
  return w;
}

// ---- Serving path -----------------------------------------------------------

/// The client's response body: each item on its own line, nodes through
/// xml::Serialize, atomics by their string value.
std::string SerializeResult(const xdm::Sequence& seq) {
  std::string out;
  for (const xdm::Item& item : seq) {
    if (!out.empty()) out += '\n';
    out += item.IsNode() ? xml::Serialize(item.node()) : item.StringValue();
  }
  return out;
}

engine::Engine::GlobalMap Globals(const xml::Document* doc) {
  return {{"input", {xdm::Item(doc->root())}}};
}

/// Reference answers from the Core interpreter (PlanChoice::kCoreInterp)
/// over the normalized, unrewritten Core, so neither the TPNF' rewrites
/// nor the algebra and pattern layers take part. Computed before set-up in
/// an engine of their own; not part of setup_s.
bool ComputeReferences(Workload* w) {
  engine::Engine ref_engine;
  auto doc = ref_engine.LoadDocument("input", w->doc_text);
  if (!doc.ok()) {
    std::fprintf(stderr, "reference load: %s\n",
                 doc.status().ToString().c_str());
    return false;
  }
  engine::Engine::GlobalMap globals = Globals(*doc);
  engine::CompileOptions unrewritten;
  unrewritten.rewrite = false;
  for (const std::string& text : w->ref_texts) {
    auto q = ref_engine.Compile(text, unrewritten);
    if (!q.ok()) {
      std::fprintf(stderr, "reference compile %s: %s\n", text.c_str(),
                   q.status().ToString().c_str());
      return false;
    }
    auto r = ref_engine.Execute(*q, globals, exec::EvalOptions{},
                                engine::PlanChoice::kCoreInterp);
    if (!r.ok()) {
      std::fprintf(stderr, "reference execute %s: %s\n", text.c_str(),
                   r.status().ToString().c_str());
      return false;
    }
    w->references.push_back(SerializeResult(*r));
  }
  return true;
}

/// Outcome counters of timed requests.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Check(const Workload& w, const Request& req,
             const Result<xdm::Sequence>& result, const std::string& body) {
    ++attempted;
    if (!result.ok()) {
      ++failed;
      if (failed <= 3) {
        std::fprintf(stderr, "request failed: %s\n  %s\n",
                     result.status().ToString().c_str(), req.text.c_str());
      }
    } else if (body != w.references[req.ref]) {
      ++failed;
      if (failed <= 3) {
        std::fprintf(stderr, "wrong answer (%zu bytes, want %zu): %s\n",
                     body.size(), w.references[req.ref].size(),
                     req.text.c_str());
      }
    }
  }
};

/// A loaded engine ready to serve, after the warm-up pass.
struct Server {
  std::unique_ptr<engine::Engine> engine;
  const xml::Document* doc = nullptr;
  engine::Engine::GlobalMap globals;
  exec::EvalOptions eval;
  double parse_s = 0;
  double warmup_s = 0;
  /// CompileCached time of each warm-up lookup (each one a fill).
  std::vector<double> fill_us;
};

/// One set-up: document load from text, then the warm-up pass (plan-cache
/// fill, lazy tag indexes). Warm-up requests are checked like timed ones.
bool SetUp(Workload* w, Server* s, Tally* tally) {
  s->engine = std::make_unique<engine::Engine>();
  Clock::time_point t0 = Clock::now();
  auto doc = s->engine->LoadDocument("input", w->doc_text);
  Clock::time_point t1 = Clock::now();
  if (!doc.ok()) {
    std::fprintf(stderr, "load: %s\n", doc.status().ToString().c_str());
    return false;
  }
  s->doc = *doc;
  s->globals = Globals(s->doc);
  s->eval = w->eval;
  s->parse_s = Seconds(t0, t1);
  Request req;
  for (int64_t done = 0; w->NextWarmup(*s->engine, done, &req); ++done) {
    Clock::time_point c0 = Clock::now();
    auto plan = s->engine->CompileCached(req.text);
    s->fill_us.push_back(Micros(c0, Clock::now()));
    Result<xdm::Sequence> r =
        plan.ok() ? s->engine->Execute(**plan, s->globals, s->eval)
                  : Result<xdm::Sequence>(plan.status());
    tally->Check(*w, req, r, r.ok() ? SerializeResult(*r) : std::string());
  }
  s->warmup_s = Seconds(t1, Clock::now());
  return true;
}

// ---- Statistics -------------------------------------------------------------

/// Nearest-rank percentile of `v` (0 < p <= 1); sorts a copy.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// ---- Traced request ---------------------------------------------------------

/// Per-layer accumulators of the traced blocks. Times in microseconds.
struct LayerTrace {
  int64_t requests = 0;
  double parse_us = 0, normalize_us = 0, rewrite_us = 0, compile_us = 0,
         optimize_us = 0;
  double fingerprint_us = 0;
  std::vector<double> hit_us, fill_us;
  int64_t lookups = 0, hits = 0;
  double plan_bytes = 0;
  double execute_us = 0;
  ExecStats counters;
  int64_t result_items = 0;
  double serialize_us = 0;
  double serialized_bytes = 0;
};

/// The compile phases of Engine::Compile, called one by one with the
/// verifiers off (as bench_compile does). Out of band: the serving path
/// below compiles through the plan cache as usual.
bool TraceCompilePhases(engine::Engine& e, const std::string& text,
                        LayerTrace* t) {
  StringInterner* interner = e.interner();
  Clock::time_point t0 = Clock::now();
  auto surface = xquery::ParseQuery(text, interner);
  Clock::time_point t1 = Clock::now();
  if (!surface.ok()) return false;
  core::VarTable vars;
  auto normalized = core::Normalize(**surface, &vars);
  Clock::time_point t2 = Clock::now();
  if (!normalized.ok()) return false;
  core::RewriteOptions ropts;
  ropts.verify = false;
  auto rewritten = core::RewriteToTPNF(core::Clone(**normalized), &vars, ropts);
  Clock::time_point t3 = Clock::now();
  if (!rewritten.ok()) return false;
  auto plan = algebra::Compile(**rewritten, vars, interner);
  Clock::time_point t4 = Clock::now();
  if (!plan.ok()) return false;
  algebra::OpPtr optimized = algebra::Clone(**plan);
  algebra::OptimizeOptions oopts;
  oopts.verify = false;
  oopts.vars = &vars;
  Status st = algebra::Optimize(&optimized, interner, oopts);
  Clock::time_point t5 = Clock::now();
  if (!st.ok()) return false;
  t->parse_us += Micros(t0, t1);
  t->normalize_us += Micros(t1, t2);
  t->rewrite_us += Micros(t2, t3);
  t->compile_us += Micros(t3, t4);
  t->optimize_us += Micros(t4, t5);
  return true;
}

/// ExecuteQuery split at its module boundaries (Fingerprint, the
/// CompileCached lookup or fill, Execute under ScopedExecStats), then
/// serialization.
void TracedRequest(Server& s, const Request& req, LayerTrace* t,
                   Result<xdm::Sequence>* result, std::string* body) {
  engine::Engine& e = *s.engine;
  ++t->requests;
  bool phases_ok = TraceCompilePhases(e, req.text, t);
  Clock::time_point f0 = Clock::now();
  e.Fingerprint(req.text);
  t->fingerprint_us += Micros(f0, Clock::now());

  int64_t fills_before = e.plan_cache_stats().fills;
  Clock::time_point c0 = Clock::now();
  auto plan = e.CompileCached(req.text);
  Clock::time_point c1 = Clock::now();
  if (!plan.ok()) {
    *result = plan.status();
    return;
  }
  ++t->lookups;
  if (e.plan_cache_stats().fills > fills_before) {
    t->fill_us.push_back(Micros(c0, c1));
    // Ad-hoc lookups all miss; time a hit on the plan just filled.
    Clock::time_point h0 = Clock::now();
    (void)e.CompileCached(req.text);
    t->hit_us.push_back(Micros(h0, Clock::now()));
  } else {
    ++t->hits;
    t->hit_us.push_back(Micros(c0, c1));
  }
  t->plan_bytes += static_cast<double>((*plan)->MemoryUsage());

  {
    ScopedExecStats scope;
    Clock::time_point x0 = Clock::now();
    *result = e.Execute(**plan, s.globals, s.eval);
    t->execute_us += Micros(x0, Clock::now());
    t->counters.Add(scope.stats());
  }
  if (!result->ok()) return;
  t->result_items += static_cast<int64_t>((*result)->size());
  Clock::time_point s0 = Clock::now();
  *body = SerializeResult(**result);
  t->serialize_us += Micros(s0, Clock::now());
  t->serialized_bytes += static_cast<double>(body->size());
  if (!phases_ok) {
    *result = Status::Internal("out-of-band compile phases failed");
  }
}

// ---- Warm-query probe (traced runs) -----------------------------------------

struct ProbeResult {
  std::vector<std::pair<std::string, double>> execute_us;  ///< per query id
  int64_t mismatches = 0;  ///< queries whose counters did not repeat
  bool ok = true;
};

bool SameCounters(const ExecStats& a, const ExecStats& b) {
  return a.nodes_visited == b.nodes_visited &&
         a.index_entries_scanned == b.index_entries_scanned &&
         a.index_skips == b.index_skips &&
         a.pattern_evals == b.pattern_evals &&
         a.governor_checks == b.governor_checks &&
         a.peak_memory_bytes == b.peak_memory_bytes &&
         a.batches == b.batches &&
         a.tuples_materialized == b.tuples_materialized &&
         a.cow_column_copies == b.cow_column_copies;
}

/// Every traced run probes the 25 warm-workload queries on their own
/// documents, whatever --workload is: the median Engine::Execute time of
/// each with its workload's options, and the counter self-check (each
/// query twice at threads = 1; every ExecStats counter must repeat
/// exactly).
ProbeResult ProbeWarmQueries(const std::string& xmark_text,
                             const std::string& member_text) {
  constexpr int kReps = 5;
  ProbeResult out;
  engine::Engine e;
  auto xmark = e.LoadDocument("xmark", xmark_text);
  auto member = e.LoadDocument("member", member_text);
  if (!xmark.ok() || !member.ok()) {
    out.ok = false;
    return out;
  }
  const struct {
    std::vector<NamedQuery> queries;
    const xml::Document* doc;
    exec::EvalOptions eval;
  } sets[] = {{XmarkServeQueries(), *xmark, exec::EvalOptions{}},
              {MemberTwigQueries(), *member, MemberTwigEval()}};
  for (const auto& [queries, doc, eval] : sets) {
    engine::Engine::GlobalMap globals = Globals(doc);
    for (const NamedQuery& q : queries) {
      auto plan = e.CompileCached(q.text);
      if (!plan.ok() || !e.Execute(**plan, globals, eval).ok()) {
        out.ok = false;
        continue;
      }
      std::vector<double> us;
      for (int i = 0; i < kReps; ++i) {
        Clock::time_point t0 = Clock::now();
        auto r = e.Execute(**plan, globals, eval);
        us.push_back(Micros(t0, Clock::now()));
        if (!r.ok()) out.ok = false;
      }
      out.execute_us.emplace_back(q.id, Median(us));
      exec::EvalOptions one;
      one.threads = 1;
      ExecStats runs[2];
      for (ExecStats& stats : runs) {
        ScopedExecStats scope;
        if (!e.Execute(**plan, globals, one).ok()) out.ok = false;
        stats = scope.stats();
      }
      if (!SameCounters(runs[0], runs[1])) {
        ++out.mismatches;
        std::fprintf(stderr, "counter self-check: %s: %s vs %s\n",
                     q.id.c_str(), runs[0].ToString().c_str(),
                     runs[1].ToString().c_str());
      }
    }
  }
  return out;
}

// ---- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
#ifndef NDEBUG
  // A debug build turns on the plan verifiers, the equivalence oracle and
  // check_inferred_props by default: a different program.
  std::fprintf(stderr,
               "e2e_bench: refusing to report numbers from a build without "
               "NDEBUG (build type %s)\n",
               XQTP_BENCH_BUILD_TYPE);
  return 3;
#endif

  Clock::time_point gen_start = Clock::now();
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  Clock::time_point ref_start = Clock::now();
  if (!ComputeReferences(w.get())) return 1;
  const double reference_s = Seconds(ref_start, Clock::now());
  const double generate_s = Seconds(gen_start, ref_start);

  // Set up several times; setup_s is the median. An ad-hoc set-up fills
  // 64 MiB of plans (~1 s), a warm one takes ~0.1 s. The first half runs
  // before the timed window, and its last server serves it; the rest runs
  // after the window. A run of consecutive set-ups lasts about a second,
  // and its median followed the shared host's state at that moment.
  // Set-ups a timed window apart see two such states.
  const int reps = args.workload == "xmark-adhoc" ? 5 : 15;
  Tally setup_tally;  // warm-up answers are checked, but not reported
  std::vector<double> setup_s, parse_s, warmup_s;
  auto set_up = [&](Server* s) {
    *s = Server();
    if (!SetUp(w.get(), s, &setup_tally)) return false;
    parse_s.push_back(s->parse_s);
    warmup_s.push_back(s->warmup_s);
    setup_s.push_back(s->parse_s + s->warmup_s);
    return true;
  };
  Server server;
  for (int r = 0; r < (reps + 1) / 2; ++r) {
    if (!set_up(&server)) return 1;
  }
  Tally tally;

  engine::PlanCacheStats cache_before = server.engine->plan_cache_stats();
  std::vector<double> latency_us;
  LayerTrace trace;
  double untraced_s = 0, traced_s = 0;
  int64_t untraced_n = 0;
  // Traced runs alternate blocks so that drift hits both sides alike.
  const double block_s = args.trace ? 0.25 : args.seconds;
  Request req;
  std::string body;
  Clock::time_point start = Clock::now();
  for (bool traced_block = false;; traced_block = args.trace && !traced_block) {
    Clock::time_point block_start = Clock::now();
    if (Seconds(start, block_start) >= args.seconds) break;
    Clock::time_point block_end =
        block_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(block_s));
    int64_t n = 0;
    Clock::time_point now = block_start;
    while (now < block_end) {
      w->Next(&req);
      Result<xdm::Sequence> result{Status::Internal("not run")};
      body.clear();
      if (traced_block) {
        TracedRequest(server, req, &trace, &result, &body);
      } else {
        Clock::time_point t0 = Clock::now();
        result =
            server.engine->ExecuteQuery(req.text, server.globals, server.eval);
        if (result.ok()) body = SerializeResult(*result);
        latency_us.push_back(Micros(t0, Clock::now()));
      }
      tally.Check(*w, req, result, body);
      ++n;
      now = Clock::now();
    }
    (traced_block ? traced_s : untraced_s) += Seconds(block_start, now);
    if (!traced_block) untraced_n += n;
  }
  engine::PlanCacheStats cache_after = server.engine->plan_cache_stats();
  const double rss_mb = PeakRssMb();
  const size_t doc_nodes = server.doc->node_count();
  // Fills timed during set-up count toward engine.cache_fill_us.
  std::vector<double> fill_us = std::move(server.fill_us);
  server = Server();
  for (int r = (reps + 1) / 2; r < reps; ++r) {
    if (!set_up(&server)) return 1;
  }
  server = Server();
  const int64_t setup_failed = setup_tally.failed;

  // ---- Run header.
  const int workers = exec::ThreadPool::ResolveThreads(w->eval.threads);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# nproc=%u workers=%d build_type=%s ndebug=1 git_sha=%s\n",
              std::thread::hardware_concurrency(), workers,
              XQTP_BENCH_BUILD_TYPE, args.git_sha.c_str());
  std::printf("# document nodes=%zu text_bytes=%zu plan_cache_capacity=%lld\n",
              doc_nodes, w->doc_text.size(),
              static_cast<long long>(cache_after.capacity_bytes));
  std::printf(
      "# references=%zu generate_s=%.3f reference_s=%.3f setup_reps=%d "
      "warmup_requests=%zu setup_failed=%lld\n",
      w->references.size(), generate_s, reference_s, reps, fill_us.size(),
      static_cast<long long>(setup_failed));

  bool correct = tally.failed == 0 && setup_failed == 0;
  std::vector<Metric> metrics;
  if (!args.trace) {
    const double qps = static_cast<double>(untraced_n) / untraced_s;
    const size_t n = latency_us.size();
    const size_t beyond_p99 =
        n - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
    metrics = {
        {"qps", qps, "1/s"},
        {"latency_p50_ms", Percentile(latency_us, 0.50) / 1000.0, "ms"},
        {"latency_p99_ms", Percentile(latency_us, 0.99) / 1000.0, "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    std::printf("# requests=%zu beyond_p99=%zu failed=%lld\n", n, beyond_p99,
                static_cast<long long>(tally.failed));
  } else {
    ProbeResult probe;
    {
      // The probe needs both warm documents; reuse this run's text when it
      // is one of them.
      std::string xmark = w->name == "xmark-serve" ? w->doc_text
                                                   : XmarkText(1.0, args.seed);
      std::string member = w->name == "member-twig" ? w->doc_text
                                                    : MemberText(args.seed);
      probe = ProbeWarmQueries(xmark, member);
    }
    correct = correct && probe.ok && probe.mismatches == 0;
    const double n = static_cast<double>(std::max<int64_t>(1, trace.requests));
    fill_us.insert(fill_us.end(), trace.fill_us.begin(), trace.fill_us.end());
    const double qps_untraced = static_cast<double>(untraced_n) / untraced_s;
    const double qps_traced = static_cast<double>(trace.requests) / traced_s;
    const ExecStats& c = trace.counters;
    metrics = {
        {"xquery.parse_us", trace.parse_us / n, "us"},
        {"core.normalize_us", trace.normalize_us / n, "us"},
        {"core.rewrite_us", trace.rewrite_us / n, "us"},
        {"algebra.compile_us", trace.compile_us / n, "us"},
        {"algebra.optimize_us", trace.optimize_us / n, "us"},
        {"engine.fingerprint_us", trace.fingerprint_us / n, "us"},
        {"engine.cache_hit_us", Mean(trace.hit_us), "us"},
        {"engine.cache_fill_us", Mean(fill_us), "us"},
        {"engine.cache_hit_ratio",
         static_cast<double>(trace.hits) /
             static_cast<double>(std::max<int64_t>(1, trace.lookups)),
         "ratio"},
        {"engine.cache_evictions",
         static_cast<double>(cache_after.evictions - cache_before.evictions),
         "count"},
        {"engine.plan_kb", trace.plan_bytes / n / 1024.0, "KiB"},
        {"exec.execute_us", trace.execute_us / n, "us"},
        {"exec.nodes_visited", static_cast<double>(c.nodes_visited) / n,
         "count"},
        {"exec.index_entries_scanned",
         static_cast<double>(c.index_entries_scanned) / n, "count"},
        {"exec.index_skips", static_cast<double>(c.index_skips) / n, "count"},
        {"exec.pattern_evals", static_cast<double>(c.pattern_evals) / n,
         "count"},
        {"exec.batches", static_cast<double>(c.batches) / n, "count"},
        {"exec.tuples_materialized",
         static_cast<double>(c.tuples_materialized) / n, "count"},
        {"exec.cow_column_copies",
         static_cast<double>(c.cow_column_copies) / n, "count"},
        {"exec.result_items", static_cast<double>(trace.result_items) / n,
         "count"},
        {"xml.serialize_us", trace.serialize_us / n, "us"},
        {"xml.serialized_kb", trace.serialized_bytes / n / 1024.0, "KiB"},
        {"xml.parse_s", Median(parse_s), "s"},
        {"setup.warmup_s", Median(warmup_s), "s"},
        {"trace.overhead_pct", (qps_untraced / qps_traced - 1.0) * 100.0,
         "%"},
        {"exec.selfcheck_mismatches", static_cast<double>(probe.mismatches),
         "count"},
    };
    for (const auto& [id, us] : probe.execute_us) {
      metrics.push_back({"exec.execute_us." + id, us, "us"});
    }
    std::printf("# traced requests=%lld untraced requests=%lld "
                "qps_traced=%.2f qps_untraced=%.2f\n",
                static_cast<long long>(trace.requests),
                static_cast<long long>(untraced_n), qps_traced, qps_untraced);
  }
  PrintResult(correct, tally, metrics);
  return 0;
}

}  // namespace
}  // namespace xqtp::e2ebench

int main(int argc, char** argv) { return xqtp::e2ebench::Main(argc, argv); }
