// cfgbench: runs one workload and prints its metrics.
//
//   cfgbench --workload route|tag_stream|nids_batch|compile --seed N
//            --seconds S --trace 0|1 [--data-dir DIR] [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 the per-layer ones
// and writes a span trace to --out-dir. The last stdout line is the result
// object; the line before it holds the run fingerprint and details.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "harness/probes.h"
#include "harness/reference.h"
#include "harness/registry.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "harness/workload.h"
#include "harness/workloads.h"

#ifndef CFGBENCH_BUILD_TYPE
#define CFGBENCH_BUILD_TYPE "unknown"
#endif

namespace cfgbench {
namespace {

// Null for an unknown name. `data_dir` holds the pinned grammar files.
std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       const std::string& data_dir) {
  if (name == "route") return MakeRouteWorkload(RouteConfig());
  if (name == "tag_stream") return MakeTagStreamWorkload(data_dir);
  if (name == "nids_batch") return MakeNidsBatchWorkload(data_dir);
  if (name == "compile") return MakeCompileWorkload(data_dir);
  return nullptr;
}

// Set-up is 1-10 ms, so one sample does not repeat; its median is taken
// over the warm-up rounds plus one round per rate window.
constexpr size_t kWarmupRounds = 11;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kMaxSamples = 1 << 20;
// The tail is read in each third of the timed loop, and the median of the
// three is reported.
constexpr size_t kTailBlocks = 3;
constexpr size_t kMaxWindowSamples = 1 << 17;
constexpr std::chrono::milliseconds kRateWindow{500};
// Host reference timings inside a rate window, besides those at its ends.
constexpr std::chrono::milliseconds kReferenceEvery{100};

// Per-layer metrics only the workload calling that layer measures.
constexpr std::pair<const char*, const char*> kLayerOnlyMetrics[] = {
    {"nids.scan_ns_per_byte", "ns/B"},
    {"nids.span_match_ns_per_byte", "ns/B"},
    {"nids.context_free_ns_per_byte", "ns/B"},
    {"nids.spans_per_byte", "1/B"},
    {"nids.alerts", "count"},
    {"nids.engine_speedup", "ratio"},
    {"nids.critical_path_ratio", "ratio"},
    {"xmlrpc.route_tags_us", "us"},
    {"xmlrpc.route_self_us", "us"},
    {"xmlrpc.defaulted_ratio", "ratio"},
};
constexpr size_t kTraceSpansWritten = 50000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = "cfgbench/grammars";
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The first /proc/cpuinfo line starting with `key`, after its colon.
std::string CpuInfo(const char* key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t value = line.find_first_not_of(" \t", line.find(':') + 1);
      return value == std::string::npos ? "" : line.substr(value);
    }
  }
  return "";
}

// Widest vector extension the CPU offers (the library's own dispatch
// tier is read from its registry once an engine has used it).
std::string CpuSimd() {
  std::string flags = " ";
  flags += CpuInfo("flags");
  flags += " ";
  flags += CpuInfo("Features");
  flags += " ";
  for (const char* isa : {"avx512bw", "avx2", "sse4_2", "ssse3", "asimd"}) {
    if (flags.find(std::string(" ") + isa + " ") != std::string::npos) {
      return isa;
    }
  }
  return "none";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

struct Counts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

// Registry counts over the timed phase. A family the library does not
// register is marked absent.
void AddRegistryMetrics(const RegistrySnapshot& before,
                        const RegistrySnapshot& after, double wall_s,
                        int workers, Metrics* out) {
  const auto delta = [&](const char* family) {
    return FamilyDelta(before, after, family);
  };
  const auto put = [&](const char* name, std::optional<double> v,
                       const char* unit) {
    (*out)[name] = Metric{v.value_or(0), unit, !v.has_value()};
  };
  // Tagger work runs through Tag() or, for the nids filter, its own
  // session loop; both count bytes and tags.
  const auto sum = [](std::optional<double> a, std::optional<double> b) {
    if (!a && !b) return std::optional<double>();
    return std::optional<double>(a.value_or(0) + b.value_or(0));
  };
  const auto bytes = sum(delta("cfgtag_tag_bytes_total"),
                         delta("cfgtag_nids_bytes_total"));
  const auto tags = sum(delta("cfgtag_tag_tokens_total"),
                        delta("cfgtag_nids_tokens_total"));
  const auto ratio = [&](std::optional<double> num) {
    if (!num || !bytes || *bytes <= 0) return std::optional<double>();
    return std::optional<double>(*num / *bytes);
  };
  put("tagger.tags_per_byte", ratio(tags), "1/B");
  put("tagger.skip_byte_ratio", ratio(delta("cfgtag_skip_bytes_total")),
      "ratio");
  put("tagger.dfa_states", delta("cfgtag_dfa_cache_states"), "count");
  put("tagger.dfa_flushes", delta("cfgtag_dfa_cache_flushes"), "count");
  put("tagger.dfa_fallbacks", delta("cfgtag_dfa_cache_fallbacks"), "count");
  put("tagger.session_drops", delta("cfgtag_session_pool_dropped_total"),
      "count");
  const auto tasks = delta("cfgtag_engine_tasks_total");
  const auto busy = delta("cfgtag_engine_task_seconds_sum");
  // Workloads without a pool read 0: there is nothing to be absent.
  if (workers == 0) {
    put("core.pool_tasks", 0.0, "count");
    put("core.pool_busy_ratio", 0.0, "ratio");
    return;
  }
  put("core.pool_tasks", tasks, "count");
  put("core.pool_busy_ratio",
      busy ? std::optional<double>(*busy / (wall_s * workers))
           : std::optional<double>(),
      "ratio");
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.data_dir);
  if (workload == nullptr) {
    std::fprintf(stderr,
                 "cfgbench: unknown workload '%s' or unreadable grammars "
                 "in %s\n",
                 args.workload.c_str(), args.data_dir.c_str());
    return 2;
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "cfgbench: WARNING: UNOPTIMISED BUILD; timings are not "
               "comparable to anything\n");
#endif
  Counts counts;
  const uint64_t digest = workload->Generate(args.seed);

  // Set-up samples are taken in rounds spread over the whole run, so their
  // median samples the machine across time rather than one burst:
  // kWarmupRounds rounds spread over the warm-up ops (lazy state, caches,
  // first-pass reference digests), then one per rate window of the timed
  // loop, outside the op timings. Each round first times the host
  // reference; the set-up time is scaled to the reference's nominal speed,
  // and the reference time is returned for the window it closes.
  HostReference reference;
  std::vector<double> setup_s, reference_ms, raw_setup_s;
  const auto sample_setup = [&] {
    const double ref_ms = reference.TimeMs();
    reference_ms.push_back(ref_ms);
    const Clock::time_point t0 = Clock::now();
    counts.Add(workload->Setup(nullptr));
    raw_setup_s.push_back(SecondsSince(t0));
    setup_s.push_back(raw_setup_s.back() * HostReference::kNominalMs /
                      ref_ms);
    return ref_ms;
  };
  uint64_t op = 0;
  for (size_t round = 0; round < kWarmupRounds; ++round) {
    sample_setup();
    const Clock::time_point round_start = Clock::now();
    do {
      counts.Add(workload->RunOp(op++, nullptr).ok);
    } while (SecondsSince(round_start) < kWarmupSeconds / kWarmupRounds);
  }
  if (counts.failed > 0) {
    std::fprintf(stderr, "cfgbench: set-up or warm-up failed its oracle\n");
  }

  Metrics metrics;
  Tail tail;
  std::string trace_file;
  std::string unscaled;  // detail-line fields of an untraced run
  const RegistrySnapshot before = SnapshotRegistry();
  const Clock::time_point loop_start = Clock::now();
  const auto deadline =
      loop_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(args.seconds));
  if (!args.trace) {
    // Fixed, pre-touched sample storage, so peak RSS does not grow with
    // throughput: all samples for the tail, one block per third of the
    // loop that a window starts in (past a block's capacity its oldest are
    // overwritten), and the current rate window's for its median (a full
    // buffer closes the window early).
    constexpr size_t kBlockSamples = kMaxSamples / kTailBlocks;
    std::vector<std::vector<double>> tail_us(
        kTailBlocks, std::vector<double>(kBlockSamples, 0.0));
    std::vector<uint64_t> block_samples(kTailBlocks, 0);
    size_t block = 0;
    std::vector<double> window_us(kMaxWindowSamples, 0.0);
    size_t in_window = 0;
    // Per kRateWindow-long window of the loop: its rate, counting only the
    // time inside ops, and its median latency. Both, and the window's
    // samples kept for the tail, are scaled by the median host reference
    // time of the window: at its two ends and every kReferenceEvery inside
    // it, between ops. The host's speed changes for seconds or minutes at
    // a time, by up to 2x, and moves the reference with it.
    std::vector<double> mb_rate, p50_us, raw_mb_rate, raw_p50_us;
    double op_s = 0, bytes = 0;
    std::vector<double> window_ref_ms = {reference_ms.back()};
    Clock::time_point window_end = Clock::now() + kRateWindow;
    Clock::time_point next_ref = Clock::now() + kReferenceEvery;
    for (Clock::time_point t = Clock::now(); t < deadline;) {
      const OpResult r = workload->RunOp(op++, nullptr);
      const Clock::time_point t1 = Clock::now();
      const double us =
          std::chrono::duration<double, std::micro>(t1 - t).count();
      t = t1;
      counts.Add(r.ok);
      tail_us[block][block_samples[block]++ % kBlockSamples] = us;
      window_us[in_window++] = us;
      op_s += us / 1e6;
      bytes += static_cast<double>(r.bytes);
      if (t >= window_end || t >= deadline ||
          in_window == kMaxWindowSamples) {
        const double end_ref_ms = sample_setup();
        window_ref_ms.push_back(end_ref_ms);
        const double scale =
            HostReference::kNominalMs / Median(window_ref_ms);
        window_ref_ms = {end_ref_ms};
        raw_mb_rate.push_back(bytes / 1e6 / op_s);
        mb_rate.push_back(raw_mb_rate.back() / scale);
        const auto mid = window_us.begin() + in_window / 2;
        std::nth_element(window_us.begin(), mid,
                         window_us.begin() + in_window);
        raw_p50_us.push_back(*mid);
        p50_us.push_back(*mid * scale);
        const uint64_t n = block_samples[block];
        for (uint64_t k = n - in_window; k < n; ++k) {
          tail_us[block][k % kBlockSamples] *= scale;
        }
        op_s = bytes = 0;
        in_window = 0;
        t = Clock::now();
        window_end = t + kRateWindow;
        next_ref = t + kReferenceEvery;
        block = std::min<size_t>(
            kTailBlocks - 1,
            static_cast<size_t>((t - loop_start) * kTailBlocks /
                                (deadline - loop_start)));
      } else if (t >= next_ref) {
        window_ref_ms.push_back(reference.TimeMs());
        reference_ms.push_back(window_ref_ms.back());
        t = Clock::now();
        next_ref = t + kReferenceEvery;
      }
    }
    std::vector<std::vector<double>> blocks;
    for (size_t b = 0; b < kTailBlocks; ++b) {
      if (block_samples[b] == 0) continue;  // a loop shorter than a third
      tail_us[b].resize(std::min<uint64_t>(block_samples[b], kBlockSamples));
      std::sort(tail_us[b].begin(), tail_us[b].end());
      blocks.push_back(std::move(tail_us[b]));
    }
    tail = MedianTailOfBlocks(blocks);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics["setup_s"] = {Median(setup_s), "s"};
    metrics["throughput_mb_s"] = {Median(mb_rate), "MB/s"};
    metrics["latency_p50_us"] = {Median(p50_us), "us"};
    metrics["latency_tail_us"] = {tail.value, "us"};
    metrics["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0,
                              "MB"};
    const auto [ref_min, ref_max] =
        std::minmax_element(reference_ms.begin(), reference_ms.end());
    unscaled = "\"reference_ms\": {\"median\": " +
               JsonNumber(Median(reference_ms)) +
               ", \"min\": " + JsonNumber(*ref_min) +
               ", \"max\": " + JsonNumber(*ref_max) +
               ", \"nominal\": " + JsonNumber(HostReference::kNominalMs) +
               "}, \"unscaled\": {\"setup_s\": " +
               JsonNumber(Median(raw_setup_s)) +
               ", \"throughput_mb_s\": " + JsonNumber(Median(raw_mb_rate)) +
               ", \"latency_p50_us\": " + JsonNumber(Median(raw_p50_us)) +
               "}, ";
  } else {
    // Each op runs twice back to back, once under spans and once without,
    // in alternating order; the paired sums give the tracing overhead.
    SpanRecorder recorder;
    double traced_us = 0, plain_us = 0;
    uint64_t pairs = 0;
    while (Clock::now() < deadline) {
      for (int pass = 0; pass < 2; ++pass) {
        const bool traced = (pass + pairs) % 2 == 1;
        const Clock::time_point t0 = Clock::now();
        if (traced) {
          recorder.NextOp();
          BenchSpan root(&recorder, "bench.op");
          counts.Add(workload->RunOp(op, &recorder).ok);
        } else {
          counts.Add(workload->RunOp(op, nullptr).ok);
        }
        (traced ? traced_us : plain_us) += SecondsSince(t0) * 1e6;
      }
      ++op;
      ++pairs;
    }
    const double loop_s = SecondsSince(loop_start);
    const RegistrySnapshot after = SnapshotRegistry();
    AddRegistryMetrics(before, after, loop_s, workload->Workers(), &metrics);
    metrics["bench.trace_overhead_pct"] = {
        (traced_us / plain_us - 1) * 100, "%"};

    // The set-up path and the layer probes, under spans.
    recorder.NextOp();
    {
      BenchSpan root(&recorder, "bench.setup");
      counts.Add(workload->Setup(&recorder));
    }
    recorder.NextOp();
    {
      BenchSpan root(&recorder, "bench.probe");
      const int probe_failures = workload->Probe(&recorder, &metrics);
      counts.attempted += 1;
      counts.failed += probe_failures;
    }
    // Layers this workload never calls report 0, marked absent.
    for (const auto& [name, unit] : kLayerOnlyMetrics) {
      if (!metrics.count(name)) metrics[name] = Metric{0, unit, true};
    }
    // Self time by layer of one traced op (the mean over the loop) and of
    // the traced set-up; the probe spans are left out. A layer they never
    // call is absent. hwgen is called by the probes alone.
    const auto put_self = [&](const char* root, const char* suffix,
                              double per) {
      const std::map<std::string, double> self = recorder.SelfNsByLayer(root);
      for (const char* layer : {"bench", "grammar", "core", "nids", "xmlrpc"}) {
        const auto it = self.find(layer);
        metrics[std::string("trace.") + layer + suffix] = {
            it == self.end() ? 0 : it->second / 1e3 / per, "us",
            it == self.end()};
      }
    };
    put_self("bench.op", ".self_us_per_op", static_cast<double>(pairs));
    put_self("bench.setup", ".setup_self_us", 1);
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    trace_file = args.out_dir + "/trace-" + args.workload + "-" +
                 std::to_string(args.seed) + ".json";
    if (!recorder.WriteChromeTrace(trace_file, kTraceSpansWritten)) {
      std::fprintf(stderr, "cfgbench: cannot write %s\n",
                   trace_file.c_str());
      trace_file.clear();
    }
  }

  // Detail line: fingerprint, inputs, tail definition, absent families.
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  std::string absent;
  for (const auto& [name, m] : metrics) {
    if (m.absent) absent += (absent.empty() ? "" : ", ") + JsonString(name);
  }
#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  std::printf(
      "{\"detail\": {\"workload\": %s, \"seed\": %llu, \"input_digest\": "
      "\"%s\", \"engine\": %s, \"nproc\": %u, \"cpu\": %s, \"cpu_simd\": %s, "
      "\"simd_dispatch\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"optimized\": %s, "
      "\"setup_reps\": %zu, \"ops\": %llu, \"tail_percentile\": %s, "
      "\"tail_samples\": %zu, \"tail_beyond\": %zu, \"error_rate\": %s, "
      "%s\"absent\": [%s], \"trace_file\": %s}}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), hex,
      JsonString(workload->Engines()).c_str(),
      std::thread::hardware_concurrency(),
      JsonString(CpuInfo("model name")).c_str(), JsonString(CpuSimd()).c_str(),
      JsonString(ActiveSimdTier(SnapshotRegistry())).c_str(),
      JsonString(__VERSION__).c_str(),
      JsonString(CFGBENCH_BUILD_TYPE).c_str(),
      kOptimized ? "true" : "false", setup_s.size(),
      static_cast<unsigned long long>(op), JsonNumber(tail.percentile).c_str(),
      tail.samples, tail.beyond,
      JsonNumber(static_cast<double>(counts.failed) /
                 static_cast<double>(counts.attempted))
          .c_str(),
      unscaled.c_str(), absent.c_str(), JsonString(trace_file).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      counts.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(counts.attempted),
      static_cast<unsigned long long>(counts.failed),
      MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace cfgbench

int main(int argc, char** argv) {
  cfgbench::Args args;
  if (!cfgbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cfgbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data-dir DIR] [--out-dir DIR]\n");
    return 2;
  }
  return cfgbench::Run(args);
}
