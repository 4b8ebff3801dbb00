// End-to-end tests: grammar text -> generated hardware -> tags, with the
// serving engine, the cycle-accurate netlist and the LL reference parser
// cross-checked on the paper's own examples; plus the CompiledTagger
// contract that the netlist is generated only on demand, once, from any
// thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tagger/functional_model.h"
#include "tagger/ll_parser.h"
#include "xmlrpc/message_gen.h"
#include "xmlrpc/router.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag {
namespace {

using core::CompiledTagger;
using grammar::ParseGrammar;
using tagger::Tag;

// Fig. 9: the if-then-else grammar.
constexpr char kIfThenElse[] = R"(
%%
stmt: "if" cond "then" stmt "else" stmt | "go" | "stop";
cond: "true" | "false";
%%
)";

std::vector<std::pair<std::string, uint64_t>> Render(
    const grammar::Grammar& g, const std::vector<Tag>& tags) {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const Tag& t : tags) {
    out.emplace_back(g.tokens()[t.token].name, t.end);
  }
  return out;
}

TEST(IfThenElseTest, FunctionalModelTagsInOrder) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  const std::string input = "if true then go else stop";
  auto tags = compiled->Tag(input);
  auto rendered = Render(compiled->grammar(), tags);

  std::vector<std::pair<std::string, uint64_t>> expected = {
      {"\"if\"", 1},   {"\"true\"", 6},  {"\"then\"", 11},
      {"\"go\"", 14},  {"\"else\"", 19}, {"\"stop\"", 24},
  };
  EXPECT_EQ(rendered, expected);
}

TEST(IfThenElseTest, NestedStatement) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  const std::string input = "if false then if true then go else stop else go";
  auto tags = compiled->Tag(input);
  ASSERT_EQ(tags.size(), 11u);
  // First and last tokens.
  EXPECT_EQ(compiled->grammar().tokens()[tags.front().token].name, "\"if\"");
  EXPECT_EQ(compiled->grammar().tokens()[tags.back().token].name, "\"go\"");
}

TEST(IfThenElseTest, CycleAccurateMatchesFunctionalModel) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  for (const std::string& input :
       {std::string("if true then go else stop"), std::string("go"),
        std::string("  stop  "),
        std::string("if true then if false then go else stop else go")}) {
    auto hw = compiled->TagCycleAccurate(input);
    ASSERT_TRUE(hw.ok()) << hw.status();
    EXPECT_EQ(compiled->Tag(input), hw.value()) << "input: " << input;
  }
}

TEST(IfThenElseTest, IndexBusMatchesFunctionalModel) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  const std::string input = "if true then go else stop";
  auto bus = compiled->TagViaIndexBus(input);
  ASSERT_TRUE(bus.ok()) << bus.status();
  EXPECT_EQ(compiled->Tag(input), bus.value());
}

TEST(IfThenElseTest, LlParserAgreesOnValidInput) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  auto parser = tagger::PredictiveParser::Create(&g.value(), {});
  ASSERT_TRUE(parser.ok()) << parser.status();

  auto parsed = parser->Parse("if true then go else stop");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 6u);

  EXPECT_FALSE(parser->Accepts("if true go"));
  EXPECT_FALSE(parser->Accepts("then"));
  EXPECT_TRUE(parser->Accepts("  go  "));
}

TEST(XmlRpcTest, GeneratedMessagesParseAndTagConsistently) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok()) << g.status();
  auto g2 = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g2.ok());
  auto parser = tagger::PredictiveParser::Create(&g2.value(), {});
  ASSERT_TRUE(parser.ok()) << parser.status();

  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  xmlrpc::MessageGenerator gen({}, /*seed=*/42);
  for (int i = 0; i < 20; ++i) {
    const std::string msg = gen.Generate();
    auto ll_tags = parser->Parse(msg);
    ASSERT_TRUE(ll_tags.ok()) << ll_tags.status() << "\nmsg: " << msg;

    // The hardware tags must be a superset of the true parser's tags
    // (paper §3.1: the collapsed FSA accepts a superset).
    auto hw_tags = compiled->Tag(msg);
    for (const Tag& t : *ll_tags) {
      EXPECT_TRUE(std::find(hw_tags.begin(), hw_tags.end(), t) !=
                  hw_tags.end())
          << "missing tag token=" << compiled->grammar().tokens()[t.token].name
          << " end=" << t.end << "\nmsg: " << msg;
    }
  }
}

TEST(XmlRpcTest, CycleAccurateMatchesFunctionalModel) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok()) << g.status();
  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  xmlrpc::MessageGenerator gen({}, /*seed=*/7);
  for (int i = 0; i < 3; ++i) {
    const std::string msg = gen.Generate();
    auto hw = compiled->TagCycleAccurate(msg);
    ASSERT_TRUE(hw.ok()) << hw.status();
    EXPECT_EQ(compiled->Tag(msg), hw.value()) << "msg: " << msg;
  }
}

TEST(XmlRpcTest, ImplementationReportIsPlausible) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok()) << g.status();
  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  auto report = compiled->Implement(rtl::Virtex4LX200());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->area.luts, 100u);
  EXPECT_GT(report->area.pattern_bytes, 200u);
  EXPECT_GT(report->timing.fmax_mhz, 100.0);
  EXPECT_GT(report->bandwidth_gbps, 0.8);
}

TEST(RouterTest, RoutesByMethodName) {
  xmlrpc::RouterConfig config;
  config.services = {{"deposit", 1}, {"withdraw", 1}, {"acctinfo", 1},
                     {"buy", 2},     {"sell", 2},     {"price", 2}};
  config.default_port = 0;
  auto router = xmlrpc::XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok()) << router.status();

  xmlrpc::MessageGenerator gen({}, /*seed=*/3);
  EXPECT_EQ(router->Route(gen.GenerateWithMethod("deposit")), 1);
  EXPECT_EQ(router->Route(gen.GenerateWithMethod("sell")), 2);
  EXPECT_EQ(router->Route(gen.GenerateWithMethod("somethingelse")), 0);
}

TEST(RouterTest, AdversarialPayloadDoesNotMisroute) {
  xmlrpc::RouterConfig config;
  config.services = {{"deposit", 1}, {"buy", 2}};
  config.default_port = 0;
  auto router = xmlrpc::XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok()) << router.status();

  // "buy" hidden in a string value of a "deposit" call must not route to 2.
  const std::string msg =
      "<methodCall><methodName>deposit</methodName><params>"
      "<param><string>please buy everything</string></param>"
      "</params></methodCall>";
  EXPECT_EQ(router->Route(msg), 1);
}

// --- On-demand hardware generation ---------------------------------------

bool TraceHasSpan(const std::string& name) {
  for (const obs::SpanRecord& r : obs::Tracer::Default().Snapshot()) {
    if (r.name == name) return true;
  }
  return false;
}

TEST(CompiledTaggerContractTest, CompileAndTagBuildNoNetlistOrFunctionalModel) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  obs::Tracer::Default().Clear();
  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->Tag("if true then go else stop").size(), 6u);
  // TaggerGenerator::Generate traces hwgen.GenerateLanes and
  // FunctionalTagger::Create traces tagger.CreateFunctionalModel.
  EXPECT_TRUE(TraceHasSpan("core.Compile"));
  EXPECT_FALSE(TraceHasSpan("hwgen.GenerateLanes"));
  EXPECT_FALSE(TraceHasSpan("tagger.CreateFunctionalModel"));

  // Positive controls: the same trace sees both once they do run.
  ASSERT_TRUE(compiled->ExportVhdl("ite").ok());
  EXPECT_TRUE(TraceHasSpan("hwgen.GenerateLanes"));
  ASSERT_TRUE(tagger::FunctionalTagger::Create(&compiled->grammar(),
                                               compiled->options().tagger)
                  .ok());
  EXPECT_TRUE(TraceHasSpan("tagger.CreateFunctionalModel"));
}

TEST(CompiledTaggerContractTest, ConcurrentFirstExportVhdlIsIdentical) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  auto reference = CompiledTagger::Compile(g->Clone());
  ASSERT_TRUE(reference.ok()) << reference.status();
  const auto want = reference->ExportVhdl("ite");
  ASSERT_TRUE(want.ok()) << want.status();

  auto fresh = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const obs::Histogram* hwgen = obs::MetricsRegistry::Default().GetHistogram(
      "cfgtag_compile_stage_seconds{stage=\"hwgen\"}");
  const uint64_t generated_before = hwgen->TotalCount();
  constexpr int kThreads = 4;
  std::vector<std::string> vhdl(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto v = fresh->ExportVhdl("ite");
      if (v.ok()) vhdl[i] = std::move(v).value();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(vhdl[i], *want) << "thread " << i;
  }
  // One netlist, built by whichever thread got there first.
  EXPECT_EQ(hwgen->TotalCount(), generated_before + 1);
}

TEST(CompiledTaggerContractTest, HwgenErrorsSurfaceOnlyInHardwareCalls) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  hwgen::HwOptions options;
  options.bytes_per_cycle = 3;  // the generator supports 1, 2 and 4
  auto compiled = CompiledTagger::Compile(std::move(g).value(), options);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->Tag("if true then go else stop").size(), 6u);
  EXPECT_EQ(compiled->ExportVhdl("ite").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(compiled->hardware().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(compiled->TagCycleAccurate("go").status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cfgtag
