// route: the paper's Fig. 12 XML-RPC router, one Route() per ~175-byte
// message. Short anchored calls, so per-call fixed cost (padding, session
// checkout, tag vector, RouteTags) weighs as much as byte stepping.

#include <cstdio>
#include <map>
#include <optional>

#include "common/rng.h"
#include "harness/probes.h"
#include "harness/registry.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "xmlrpc/message_gen.h"

namespace cfgbench {

namespace {

using cfgtag::xmlrpc::RouterConfig;
using cfgtag::xmlrpc::XmlRpcRouter;

constexpr size_t kMessages = 4096;

// Unknown methods; the first six are prefix traps: a service name followed
// by more name bytes must not fire that service's wire.
const std::vector<std::string>& UnknownMethods() {
  static const std::vector<std::string> kNames = {
      "deposits", "buyer",    "selling",  "prices",  "withdrawal",
      "acctinfos", "transfer", "balance",  "quote",   "refund"};
  return kNames;
}

class RouteWorkload : public Workload {
 public:
  explicit RouteWorkload(RouterConfig served) : served_(std::move(served)) {}

  uint64_t Generate(uint64_t seed) override {
    const RouterConfig truth = RouteConfig();
    std::map<std::string, int> port_of;
    std::vector<std::string> services;
    for (const RouterConfig::Service& s : truth.services) {
      port_of[s.name] = s.port;
      services.push_back(s.name);
    }
    cfgtag::xmlrpc::MessageGenOptions opt;
    opt.method_names = services;
    opt.max_depth = 1;  // about 175 bytes a message
    cfgtag::xmlrpc::MessageGenerator plain(opt, seed * 4 + 1);
    opt.adversarial = true;
    cfgtag::xmlrpc::MessageGenerator adversarial(opt, seed * 4 + 2);
    cfgtag::Rng rng(seed * 4 + 3);

    messages_.clear();
    expected_.clear();
    uint64_t digest = kFnvOffset;
    for (size_t i = 0; i < kMessages; ++i) {
      const double u = rng.NextDouble();
      // 70% known methods, 20% unknown or prefix traps, 10% adversarial
      // payloads (service names smuggled into string values) whose method
      // is known or unknown with equal odds.
      const bool known = u < 0.7 || (u >= 0.9 && rng.NextBool(0.5));
      const std::string& method =
          known ? services[rng.NextIndex(services.size())]
                : UnknownMethods()[rng.NextIndex(UnknownMethods().size())];
      messages_.push_back(u < 0.9 ? plain.GenerateWithMethod(method)
                                  : adversarial.GenerateWithMethod(method));
      const auto it = port_of.find(method);
      expected_.push_back(it == port_of.end() ? truth.default_port
                                              : it->second);
      digest = Fnv1a(messages_.back(), digest);
    }
    return digest;
  }

  bool Setup(SpanRecorder* trace) override {
    std::optional<XmlRpcRouter> router;
    {
      BenchSpan span(trace, "xmlrpc.Create");
      auto created = XmlRpcRouter::Create(served_);
      if (!created.ok()) {
        std::fprintf(stderr, "route: %s\n",
                     created.status().ToString().c_str());
        return false;
      }
      router.emplace(std::move(created).value());
    }
    int port;
    {
      BenchSpan span(trace, "xmlrpc.Route");
      port = router->Route(messages_[0]);
    }
    if (!router_) router_.emplace(std::move(*router));
    return port == expected_[0];
  }

  OpResult RunOp(uint64_t i, SpanRecorder* trace) override {
    const size_t k = i % messages_.size();
    if (!router_) return {false, messages_[k].size()};
    int port;
    {
      BenchSpan span(trace, "xmlrpc.Route");
      port = router_->Route(messages_[k]);
    }
    return {port == expected_[k], messages_[k].size()};
  }

  int Probe(SpanRecorder* trace, Metrics* out) override {
    if (!router_) return 1;
    int failed = 0;
    const cfgtag::core::CompiledTagger& tagger = router_->tagger();
    // The router's own compile, minus the text parse it never does.
    cfgtag::hwgen::HwOptions options;
    options.priority_groups = tagger.options().priority_groups;
    const CompileLayers compile =
        ProbeCompile(nullptr, tagger.grammar(), options, messages_[0], 9,
                     trace);
    failed += compile.ok ? 0 : 1;
    AddCompileMetrics({compile}, out);

    std::vector<std::string_view> views(messages_.begin(), messages_.end());
    AddTagMetrics(ProbeTag(tagger, views, 0.3, trace), out);

    // Route vs Tag->vector on every message once, then RouteTags alone
    // on the tag vectors; the registry's default-port count over the same
    // Route pass must equal the generated share.
    std::vector<std::vector<cfgtag::tagger::Tag>> tagged(messages_.size());
    double route_us = 0, tag_us = 0, route_tags_us = 0;
    const int default_port = RouteConfig().default_port;
    size_t expected_default = 0;
    const RegistrySnapshot before = SnapshotRegistry();
    for (size_t k = 0; k < messages_.size(); ++k) {
      route_us += TimedUs(trace, "xmlrpc.Route", [&] {
        failed += router_->Route(messages_[k]) == expected_[k] ? 0 : 1;
      });
      tag_us += TimedUs(trace, "core.Tag",
                        [&] { tagged[k] = tagger.Tag(messages_[k]); });
      expected_default += expected_[k] == default_port ? 1 : 0;
    }
    const RegistrySnapshot after = SnapshotRegistry();
    for (size_t k = 0; k < messages_.size(); ++k) {
      route_tags_us += TimedUs(trace, "xmlrpc.RouteTags", [&] {
        failed += router_->RouteTags(tagged[k]) == expected_[k] ? 0 : 1;
      });
    }
    const double n = static_cast<double>(messages_.size());
    (*out)["xmlrpc.route_tags_us"] = {route_tags_us / n, "us"};
    (*out)["xmlrpc.route_self_us"] = {(route_us - tag_us) / n, "us"};
    const auto defaulted =
        FamilyDelta(before, after, "cfgtag_xmlrpc_routed_default_total");
    const auto routed =
        FamilyDelta(before, after, "cfgtag_xmlrpc_messages_total");
    Metric ratio{0, "ratio"};
    if (defaulted && routed && *routed > 0) {
      ratio.value = *defaulted / *routed;
      if (*defaulted != static_cast<double>(expected_default) ||
          *routed != n) {
        std::fprintf(stderr,
                     "route: registry counted %.0f of %.0f defaulted, "
                     "generated %zu of %zu\n",
                     *defaulted, *routed, expected_default,
                     messages_.size());
        ++failed;
      }
    } else {
      ratio.absent = true;
    }
    (*out)["xmlrpc.defaulted_ratio"] = ratio;
    return failed;
  }

  std::string Engines() const override {
    return router_ ? EngineName(router_->tagger()) : "none";
  }

 private:
  RouterConfig served_;
  std::vector<std::string> messages_;
  std::vector<int> expected_;
  std::optional<XmlRpcRouter> router_;
};

}  // namespace

RouterConfig RouteConfig() {
  RouterConfig config;
  config.services = {{"deposit", 1}, {"withdraw", 1}, {"acctinfo", 1},
                     {"buy", 2},     {"sell", 2},     {"price", 2}};
  config.default_port = 0;
  return config;
}

std::unique_ptr<Workload> MakeRouteWorkload(const RouterConfig& served) {
  return std::make_unique<RouteWorkload>(served);
}

}  // namespace cfgbench
