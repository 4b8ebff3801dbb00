#ifndef CFGTAG_XMLRPC_ROUTER_H_
#define CFGTAG_XMLRPC_ROUTER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/tag_stream.h"
#include "core/token_tagger.h"

namespace cfgtag::xmlrpc {

// The content-based XML-RPC message router of paper Fig. 12: the tagger
// raises a dedicated wire per known service when it appears as the
// <methodName> content, and a switch steers the message to that service's
// output port. Unknown services go to `default_port`.
struct RouterConfig {
  struct Service {
    std::string name;  // alphanumeric method name, e.g. "deposit"
    int port = 0;      // output port it routes to
  };
  std::vector<Service> services;
  int default_port = -1;
};

class XmlRpcRouter {
 public:
  static StatusOr<XmlRpcRouter> Create(const RouterConfig& config);

  // Routes one message using the software tagging engine.
  int Route(std::string_view message) const;

  // Routes via the cycle-accurate netlist simulation — the match wire of
  // the service token is observed exactly as the Fig. 12 switch would.
  StatusOr<int> RouteCycleAccurate(std::string_view message) const;

  // Token id of a service's dedicated wire (-1 if unknown).
  int32_t ServiceToken(const std::string& name) const;

  const core::CompiledTagger& tagger() const { return tagger_; }
  const RouterConfig& config() const { return config_; }

  // Routing decision over a tag stream. A service keyword identifies the
  // method name only when it matches on the same cycle as the STRING
  // fallback token: under longest-match, STRING fires exactly once at the
  // true end of the method name, so a keyword that is merely a *prefix* of
  // a longer name fires alone and is ignored — the §3.4 simultaneous-
  // detection discipline applied at the back-end.
  int RouteTags(const std::vector<tagger::Tag>& tags) const;

 private:
  XmlRpcRouter(RouterConfig config, core::CompiledTagger tagger,
               core::TagRouter switch_fabric, int32_t string_token)
      : config_(std::move(config)),
        tagger_(std::move(tagger)),
        switch_(std::move(switch_fabric)),
        string_token_(string_token) {}

  RouterConfig config_;
  core::CompiledTagger tagger_;
  core::TagRouter switch_;
  int32_t string_token_;
};

}  // namespace cfgtag::xmlrpc

#endif  // CFGTAG_XMLRPC_ROUTER_H_
