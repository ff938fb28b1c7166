// The request pool and socket client shared by the load generator
// (load.cc) and the traced layer pass (layers.cc).

#ifndef NLBENCH_LOAD_H_
#define NLBENCH_LOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "kg/label_index.h"
#include "net/http_client.h"
#include "newslink/newslink_engine.h"

namespace nlbench {

/// Every server listens on loopback.
inline constexpr const char* kHost = "127.0.0.1";
/// Generator threads, each with one keep-alive connection: nproc of the
/// reference box, so the load never needs more cores than it has.
inline constexpr size_t kClients = 4;
/// Hits requested per search.
inline constexpr size_t kTopK = 10;
/// Pool entries searched once before timing (the head of a skewed draw),
/// over the socket and, in traced runs, on the in-process engine.
inline constexpr size_t kWarmUp = 600;

/// One generated search request.
struct Op {
  std::string query;
  std::string body;        // the /v1/search JSON
  bool windowed = false;   // body carries filter.time_range
  bool recency = false;    // body carries ranking.recency_half_life_s
  int64_t after_ms = 0;
  int64_t before_ms = 0;
};

/// Traffic shape of one workload (from workloads.json, via run.py flags).
struct Mix {
  std::string queries = "lead";  // "lead" or "entities"
  size_t pool = 2000;            // distinct search requests
  double zipf = 0.0;             // draw skew over the pool (0 = uniform)
  double window_share = 0.0;     // searches with filter.time_range
  double recency_share = 0.0;    // searches with ranking.recency_half_life_s
  double explore_share = 0.0;    // open-loop arrivals that start a session
  double ingest_share = 0.0;     // open-loop arrivals that ingest a doc
};

Mix MixFromArgs(const Args& args);

/// The oracle: one in-process engine over the whole collection, loaded
/// from a snapshot, or from comma-separated shard snapshots (round-robin
/// slices) by indexing their document embeddings as one collection.
struct Oracle {
  Inputs in;
  std::unique_ptr<newslink::kg::LabelIndex> labels;
  std::unique_ptr<newslink::NewsLinkEngine> engine;
};

std::unique_ptr<Oracle> LoadOracle(const std::string& dir,
                                   const std::string& snapshots);

/// Distinct search requests, deterministic in (seed, mix, inputs).
std::vector<Op> BuildSearchPool(const Oracle& oracle, const Mix& mix,
                                uint64_t seed);

/// Draws pool indices with the mix's Zipf skew.
class PoolSampler {
 public:
  PoolSampler(size_t pool, double zipf);
  size_t Draw(uint64_t* state) const;

 private:
  std::vector<double> cdf_;
};

/// splitmix64 step; the generator's only randomness source.
uint64_t NextRandom(uint64_t* state);

/// Result of one HTTP exchange.
struct Reply {
  bool transport_ok = false;
  int status = 0;
  std::string body;
  std::string error;
};

/// One exchange on a keep-alive client (each generator thread owns one
/// client, so at most one connection per thread).
Reply Call(newslink::net::HttpClient* client, const char* method,
           const std::string& path, const std::string& body);

}  // namespace nlbench

#endif  // NLBENCH_LOAD_H_
