#ifndef CFGBENCH_HARNESS_WORKLOADS_H_
#define CFGBENCH_HARNESS_WORKLOADS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/workload.h"
#include "nids/context_filter.h"
#include "xmlrpc/router.h"

// The four workloads, and the oracle hooks the benchmark's own tests use.

namespace cfgbench {

// Fig. 12 router of the route workload: six services on two ports plus a
// default port.
cfgtag::xmlrpc::RouterConfig RouteConfig();

// The route workload serving from a router built with `served`; the oracle
// always expects the ports of RouteConfig(). Tests pass a mis-wired config.
std::unique_ptr<Workload> MakeRouteWorkload(
    const cfgtag::xmlrpc::RouterConfig& served);

std::unique_ptr<Workload> MakeTagStreamWorkload(const std::string& data_dir);
std::unique_ptr<Workload> MakeNidsBatchWorkload(const std::string& data_dir);
std::unique_ptr<Workload> MakeCompileWorkload(const std::string& data_dir);

// nids_batch's filter built `trials` times from its seeded rules, each
// fresh filter's first scan being one ScanBatch over a whole window of
// flows: the summed alert mismatches against the planted set, or empty when
// the filter cannot be built. Nonzero exposes the library's unsynchronised
// lazy build of its step tables, which the workload's set-up sidesteps.
std::optional<size_t> FreshBatchMismatches(const std::string& data_dir,
                                           uint64_t seed, int trials);

// Alerts in `actual` missing from `expected` plus those in `expected`
// missing from `actual`, as multisets of (rule, end offset).
size_t CountAlertMismatches(std::vector<cfgtag::nids::Alert> expected,
                            std::vector<cfgtag::nids::Alert> actual);

}  // namespace cfgbench

#endif  // CFGBENCH_HARNESS_WORKLOADS_H_
