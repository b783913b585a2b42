// xqtp_shell: an interactive query shell over the engine — load documents,
// run queries, switch algorithms, inspect plans.
//
//   $ ./build/examples/xqtp_shell [file.xml]
//
// Commands:
//   \load <name> <file>   load an XML file as document <name>
//   \gen member <nodes> <depth> <tags>    generate a MemBeR document
//   \gen xmark <factor>                   generate an XMark document
//   \doc <name>           bind query globals to document <name>
//   \algo nl|sc|tj|st|cb  switch the tree-pattern algorithm
//   \explain <query>      show every compilation phase
//   \plan <query>         show the optimized plan only
//   \quit                 exit
// Anything else is compiled and executed as a query.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "algebra/printer.h"
#include "engine/engine.h"
#include "workload/member_gen.h"
#include "workload/xmark_gen.h"
#include "xml/serializer.h"

namespace {

using xqtp::engine::Engine;

struct ShellState {
  Engine engine;
  const xqtp::xml::Document* current = nullptr;
  std::string current_name;
  xqtp::exec::PatternAlgo algo = xqtp::exec::PatternAlgo::kCostBased;
};

bool LoadFile(ShellState* st, const std::string& name,
              const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::printf("cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  auto doc = st->engine.LoadDocument(name, buf.str());
  if (!doc.ok()) {
    std::printf("%s\n", doc.status().ToString().c_str());
    return false;
  }
  st->current = doc.value();
  st->current_name = name;
  std::printf("loaded %s: %zu nodes\n", name.c_str(),
              st->current->node_count());
  return true;
}

void RunQuery(ShellState* st, const std::string& query) {
  auto cq = st->engine.Compile(query);
  if (!cq.ok()) {
    std::printf("%s\n", cq.status().ToString().c_str());
    return;
  }
  Engine::GlobalMap globals;
  for (const std::string& g : cq->GlobalNames()) {
    if (st->current == nullptr) {
      std::printf("no document loaded for $%s (use \\load or \\gen)\n",
                  g.c_str());
      return;
    }
    globals[g] = {xqtp::xdm::Item(st->current->root())};
  }
  auto res = st->engine.Execute(*cq, globals, {.algo = st->algo});
  if (!res.ok()) {
    std::printf("%s\n", res.status().ToString().c_str());
    return;
  }
  size_t shown = 0;
  for (const xqtp::xdm::Item& item : *res) {
    if (shown++ == 20) {
      std::printf("... (%zu items total)\n", res->size());
      break;
    }
    if (item.IsNode()) {
      std::string xml = xqtp::xml::Serialize(item.node());
      if (xml.size() > 120) xml = xml.substr(0, 117) + "...";
      std::printf("%s\n", xml.c_str());
    } else {
      std::printf("%s\n", item.StringValue().c_str());
    }
  }
  if (res->empty()) std::printf("()\n");
  std::printf("-- %zu item(s), algorithm %s\n", res->size(),
              xqtp::exec::PatternAlgoName(st->algo));
}

void Dispatch(ShellState* st, const std::string& line) {
  std::istringstream iss(line);
  std::string cmd;
  iss >> cmd;
  if (cmd == "\\load") {
    std::string name, path;
    iss >> name >> path;
    LoadFile(st, name, path);
  } else if (cmd == "\\gen") {
    std::string kind;
    iss >> kind;
    if (kind == "member") {
      xqtp::workload::MemberParams p;
      iss >> p.node_count >> p.max_depth >> p.num_tags;
      st->current = st->engine.AddDocument(
          "member",
          xqtp::workload::GenerateMember(p, st->engine.interner()));
      st->current_name = "member";
      std::printf("generated member: %zu nodes\n",
                  st->current->node_count());
    } else if (kind == "xmark") {
      xqtp::workload::XmarkParams p;
      iss >> p.factor;
      st->current = st->engine.AddDocument(
          "xmark", xqtp::workload::GenerateXmark(p, st->engine.interner()));
      st->current_name = "xmark";
      std::printf("generated xmark: %zu nodes\n", st->current->node_count());
    } else {
      std::printf("usage: \\gen member <nodes> <depth> <tags> | "
                  "\\gen xmark <factor>\n");
    }
  } else if (cmd == "\\doc") {
    std::string name;
    iss >> name;
    const xqtp::xml::Document* d = st->engine.FindDocument(name);
    if (d == nullptr) {
      std::printf("no document named %s\n", name.c_str());
    } else {
      st->current = d;
      st->current_name = name;
    }
  } else if (cmd == "\\algo") {
    std::string a;
    iss >> a;
    if (a == "nl") {
      st->algo = xqtp::exec::PatternAlgo::kNLJoin;
    } else if (a == "sc") {
      st->algo = xqtp::exec::PatternAlgo::kStaircase;
    } else if (a == "tj") {
      st->algo = xqtp::exec::PatternAlgo::kTwig;
    } else if (a == "st") {
      st->algo = xqtp::exec::PatternAlgo::kStream;
    } else if (a == "cb") {
      st->algo = xqtp::exec::PatternAlgo::kCostBased;
    } else {
      std::printf("usage: \\algo nl|sc|tj|st|cb\n");
      return;
    }
    std::printf("algorithm: %s\n", xqtp::exec::PatternAlgoName(st->algo));
  } else if (cmd == "\\explain" || cmd == "\\plan") {
    std::string rest;
    std::getline(iss, rest);
    auto cq = st->engine.Compile(rest);
    if (!cq.ok()) {
      std::printf("%s\n", cq.status().ToString().c_str());
      return;
    }
    if (cmd == "\\explain") {
      std::printf("%s\n", st->engine.Explain(*cq).c_str());
    } else {
      std::printf("%s\n",
                  xqtp::algebra::ToPrettyString(cq->optimized(), cq->vars(),
                                                *st->engine.interner())
                      .c_str());
    }
  } else if (cmd == "\\help") {
    std::printf(
        "\\load <name> <file> | \\gen member <n> <d> <t> | \\gen xmark <f> "
        "| \\doc <name> | \\algo nl|sc|tj|st|cb | \\explain <q> | "
        "\\plan <q> | \\quit\n");
  } else {
    RunQuery(st, line);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ShellState st;
  if (argc > 1) LoadFile(&st, "input", argv[1]);
  std::printf("xqtp shell — \\help for commands, \\quit to exit\n");
  std::string line;
  while (true) {
    std::printf("xqtp> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == "\\quit" || line == "\\q") break;
    Dispatch(&st, line);
  }
  return 0;
}
