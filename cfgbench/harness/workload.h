#ifndef CFGBENCH_HARNESS_WORKLOAD_H_
#define CFGBENCH_HARNESS_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "harness/trace.h"

namespace cfgbench {

// One reported number. `absent` marks a number the run cannot produce — a
// registry family the library does not register, or a layer the workload
// never calls — whose value is then 0 and means nothing. The result line
// holds only value and unit; absent names go to the detail line.
struct Metric {
  double value = 0;
  std::string unit;
  bool absent = false;
};
using Metrics = std::map<std::string, Metric>;

struct OpResult {
  bool ok = true;
  uint64_t bytes = 0;  // input bytes the op processed
};

// A closed-loop workload driven by one caller thread. The loop in main.cc
// owns timing; a workload owns its inputs, its oracle and the
// library objects it serves from. Every public library call goes through
// a BenchSpan so a traced run sees it; with a null recorder the spans
// cost one branch.
class Workload {
 public:
  virtual ~Workload() = default;

  // Draws every input and every oracle datum from `seed` (untimed) and
  // returns a digest of all bytes the library will be given.
  virtual uint64_t Generate(uint64_t seed) = 0;

  // Grammar text to the first result on the workload's first input,
  // through a fresh instance. The first set-up's instance serves the ops;
  // later ones are dropped after their first result, so repeated set-ups
  // leave the serving state alone. False (with a message on stderr) when
  // the first result disagrees with the oracle.
  virtual bool Setup(SpanRecorder* trace) = 0;

  // One operation; `i` picks the input. ok=false is one failed op.
  virtual OpResult RunOp(uint64_t i, SpanRecorder* trace) = 0;

  // Worker threads behind one op (0 when the op runs on the caller only).
  virtual int Workers() const { return 0; }

  // The per-layer probes of a traced run: each layer's public calls,
  // timed from outside on this workload's inputs. Adds the layer metrics
  // this workload exercises to `out`; returns the number of failed checks.
  virtual int Probe(SpanRecorder* trace, Metrics* out) = 0;

  // The engine(s) CompiledTagger::Compile resolved to, for the run
  // fingerprint.
  virtual std::string Engines() const = 0;
};

}  // namespace cfgbench

#endif  // CFGBENCH_HARNESS_WORKLOAD_H_
