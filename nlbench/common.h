// Shared pieces of the nlbench tool: flag parsing, clocks, percentiles,
// the generated-input loader, and the one-line JSON result writer.

#ifndef NLBENCH_COMMON_H_
#define NLBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "kg/knowledge_graph.h"

namespace nlbench {

/// --name value pairs (every flag takes a value).
struct Args {
  std::map<std::string, std::string> named;

  bool Has(const std::string& name) const { return named.contains(name); }
  std::string Get(const std::string& name, const std::string& fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
};

Args ParseArgs(int argc, char** argv, int first);

/// Monotonic clock in milliseconds (double, sub-microsecond resolution).
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (p in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double p);

/// Everything the generator wrote for one workload and seed.
struct Inputs {
  newslink::kg::KnowledgeGraph graph;
  newslink::corpus::Corpus corpus;   // the served collection, in row order
  newslink::corpus::Corpus heldout;  // newer documents for ingestion
};

/// Load <dir>/kg.*.tsv, <dir>/corpus.tsv, <dir>/heldout.tsv; exits with
/// code 2 on any I/O error.
Inputs LoadInputs(const std::string& dir);

/// First sentence of a document body (up to and including the first '.').
std::string LeadSentence(const std::string& text);

/// First `n` sentences of a document body.
std::string LeadSentences(const std::string& text, int n);

/// Named metric values in print order, written as the tool's last stdout
/// line: {"attempted": a, "failed": f, "metrics": {name: value, ...}}.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  void Add(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void Print() const;
};

}  // namespace nlbench

#endif  // NLBENCH_COMMON_H_
