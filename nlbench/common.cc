#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/json.h"
#include "common/result.h"
#include "corpus/corpus_io.h"
#include "kg/kg_io.h"

namespace nlbench {

std::string Args::Get(const std::string& name,
                      const std::string& fallback) const {
  auto it = named.find(name);
  return it == named.end() ? fallback : it->second;
}

int64_t Args::GetInt(const std::string& name, int64_t fallback) const {
  auto it = named.find(name);
  return it == named.end() ? fallback
                           : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Args::GetDouble(const std::string& name, double fallback) const {
  auto it = named.find(name);
  return it == named.end() ? fallback
                           : std::strtod(it->second.c_str(), nullptr);
}

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i + 1 < argc; i += 2) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      std::exit(1);
    }
    args.named[name.substr(2)] = argv[i + 1];
  }
  if ((argc - first) % 2 != 0) {
    std::fprintf(stderr, "flag %s needs a value\n", argv[argc - 1]);
    std::exit(1);
  }
  return args;
}

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

template <typename T>
T OrDie(newslink::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what.c_str(),
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

}  // namespace

Inputs LoadInputs(const std::string& dir) {
  Inputs in;
  in.graph = OrDie(newslink::kg::LoadTsv(dir + "/kg"), "kg");
  in.corpus = OrDie(newslink::corpus::LoadTsv(dir + "/corpus.tsv"), "corpus");
  in.heldout =
      OrDie(newslink::corpus::LoadTsv(dir + "/heldout.tsv"), "heldout");
  return in;
}

std::string LeadSentences(const std::string& text, int n) {
  size_t end = 0;
  for (int i = 0; i < n; ++i) {
    const size_t dot = text.find('.', end);
    if (dot == std::string::npos) return text;
    end = dot + 1;
  }
  return text.substr(0, end);
}

std::string LeadSentence(const std::string& text) {
  return LeadSentences(text, 1);
}

void Report::Print() const {
  using newslink::json::Value;
  Value out = Value::Object();
  out.Set("attempted", Value::Uint(attempted));
  out.Set("failed", Value::Uint(failed));
  Value m = Value::Object();
  for (const auto& [name, value] : metrics) {
    m.Set(name, Value::Number(std::isfinite(value) ? value : -1.0));
  }
  out.Set("metrics", std::move(m));
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
}

}  // namespace nlbench
