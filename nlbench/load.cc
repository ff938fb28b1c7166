// nlbench load: drive a running NewsLink server over loopback HTTP.
//
//   nlbench load --dir DIR --oracle SNAP[,SNAP...] --port P --seed S
//                --seconds T --rate R --trace 0|1
//                [--shard-ports p0,p1,...] [mix flags, see MixFromArgs]
//
// Phases, in order:
//   1. oracle   a fixed sample of searches, each compared bit for bit
//               ((doc_index, score) lists) with an in-process engine over
//               the whole collection: loaded from SNAP, or for a sharded
//               deployment indexed from the shard snapshots' embeddings;
//   2. warm-up  the first kWarmUp pool entries once each (the head of the
//               skewed draw) and one explore session, so the LCAG cache
//               and lazy set-up are warm, by count rather than by time;
//   3. closed   kClients clients back to back -> search_qps (untraced);
//   4. open     arrivals at a fixed rate R, served by kClients threads; latency
//               is timed from each arrival's scheduled send time ->
//               search/explore/ingest p50/p99 and the generator's own
//               lateness and backlog.
//               Untraced runs repeat 3+4 for kRounds rounds (30% / 70% of
//               T in total): p50 and throughput are the fast-side
//               quartile over rounds, p99 pools every round;
//               traced runs do one open window of 40% of T;
//   5. layers   traced runs only: the in-process layer pass (layers.cc)
//               for the remaining 60% of T.
// Every answer is checked (status, shape, time windows, explore
// partitions, ingest read-back); a failed check counts in `failed`.

#include "load.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/json.h"
#include "common/string_util.h"
#include "net/api_json.h"
#include "net/http_client.h"

namespace nlbench {

using newslink::json::Value;

/// Closed-burst + open-window rounds of an untraced run.
constexpr int kRounds = 6;
/// Searches compared bit for bit with the in-process oracle.
constexpr size_t kOracleSample = 32;

void RunLayers(const Oracle& oracle, const std::vector<Op>& pool,
               const PoolSampler& sampler, const Args& args, double seconds,
               Report* report);

Mix MixFromArgs(const Args& args) {
  Mix mix;
  mix.queries = args.Get("queries", mix.queries);
  mix.pool = static_cast<size_t>(args.GetInt("pool", mix.pool));
  mix.zipf = args.GetDouble("zipf", mix.zipf);
  mix.window_share = args.GetDouble("window-share", mix.window_share);
  mix.recency_share = args.GetDouble("recency-share", mix.recency_share);
  mix.explore_share = args.GetDouble("explore-share", mix.explore_share);
  mix.ingest_share = args.GetDouble("ingest-share", mix.ingest_share);
  return mix;
}

uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

double Uniform(uint64_t* state) {
  return static_cast<double>(NextRandom(state) >> 11) * 0x1.0p-53;
}

}  // namespace

PoolSampler::PoolSampler(size_t pool, double zipf) {
  cdf_.resize(pool);
  double total = 0.0;
  for (size_t i = 0; i < pool; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), zipf);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t PoolSampler::Draw(uint64_t* state) const {
  const double u = Uniform(state);
  const size_t i = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

std::unique_ptr<Oracle> LoadOracle(const std::string& dir,
                                   const std::string& snapshots) {
  auto oracle = std::make_unique<Oracle>();
  oracle->in = LoadInputs(dir);
  oracle->labels =
      std::make_unique<newslink::kg::LabelIndex>(oracle->in.graph);
  auto make_engine = [&] {
    return std::make_unique<newslink::NewsLinkEngine>(
        &oracle->in.graph, oracle->labels.get(), newslink::NewsLinkConfig{});
  };
  auto check = [](const newslink::Status& status) {
    if (!status.ok()) {
      std::fprintf(stderr, "oracle: %s\n", status.ToString().c_str());
      std::exit(2);
    }
  };
  oracle->engine = make_engine();
  const std::vector<std::string> paths = newslink::Split(snapshots, ',');
  if (paths.size() == 1) {
    check(oracle->engine->LoadSnapshot(paths.front()));
    return oracle;
  }
  // Shard snapshots: one engine over the union, indexed from the shards'
  // document embeddings (row r lives on shard r mod N as local row r / N).
  std::vector<std::vector<newslink::embed::DocumentEmbedding>> per_shard;
  for (const std::string& path : paths) {
    auto shard = make_engine();
    check(shard->LoadSnapshot(path));
    per_shard.push_back(shard->SnapshotEmbeddings());
  }
  std::vector<newslink::embed::DocumentEmbedding> embeddings;
  for (size_t row = 0; row < oracle->in.corpus.size(); ++row) {
    embeddings.push_back(per_shard[row % paths.size()][row / paths.size()]);
  }
  check(oracle->engine->IndexWithEmbeddings(oracle->in.corpus,
                                            std::move(embeddings)));
  return oracle;
}

namespace {

/// 3..8 labels from the radius-2 neighbourhood of an entity that some
/// document mentions, so the query has hits and a real LCAG search.
std::string EntityRunQuery(const Oracle& oracle, uint64_t* rng) {
  const newslink::kg::KnowledgeGraph& graph = oracle.in.graph;
  const size_t num_docs = oracle.engine->num_indexed_docs();
  for (;;) {
    const std::vector<newslink::kg::NodeId> sources =
        oracle.engine->doc_embedding(NextRandom(rng) % num_docs)
            .SourceNodes();
    if (sources.empty()) continue;
    const newslink::kg::NodeId center =
        sources[NextRandom(rng) % sources.size()];
    std::vector<newslink::kg::NodeId> hood{center};
    std::set<newslink::kg::NodeId> seen{center};
    for (size_t head = 0; head < hood.size() && hood.size() < 64; ++head) {
      const newslink::kg::NodeId v = hood[head];
      if (head > 0 && seen.size() > 24) break;  // radius ~2 around center
      for (const newslink::kg::Arc& arc : graph.OutArcs(v)) {
        if (seen.insert(arc.dst).second) hood.push_back(arc.dst);
      }
    }
    const size_t want = 3 + NextRandom(rng) % 6;
    if (hood.size() < want) continue;
    std::vector<std::string> labels{graph.label(center)};
    for (size_t tries = 0; labels.size() < want && tries < 64; ++tries) {
      const std::string& label =
          graph.label(hood[1 + NextRandom(rng) % (hood.size() - 1)]);
      if (std::find(labels.begin(), labels.end(), label) == labels.end()) {
        labels.push_back(label);
      }
    }
    if (labels.size() == want) return newslink::Join(labels, ", ");
  }
}

}  // namespace

std::vector<Op> BuildSearchPool(const Oracle& oracle, const Mix& mix,
                                uint64_t seed) {
  const newslink::corpus::Corpus& docs = oracle.in.corpus;
  int64_t min_ts = docs.doc(0).timestamp_ms, max_ts = min_ts;
  for (const newslink::corpus::Document& d : docs.docs()) {
    min_ts = std::min(min_ts, d.timestamp_ms);
    max_ts = std::max(max_ts, d.timestamp_ms);
  }
  const int64_t window = std::max<int64_t>((max_ts - min_ts) / 10, 1);

  uint64_t rng = seed * 0x51ED27ull + 3;
  std::vector<Op> pool;
  std::set<std::string> seen;
  for (size_t tries = 0; pool.size() < mix.pool && tries < 50 * mix.pool;
       ++tries) {
    Op op;
    const newslink::corpus::Document& doc =
        docs.doc(NextRandom(&rng) % docs.size());
    if (mix.queries == "entities") {
      op.query = EntityRunQuery(oracle, &rng);
    } else {
      // Mostly lead sentences, some 3-sentence paragraphs: a p50 that sat
      // between the two cost modes (a 50/50 mix) moved with every seed.
      op.query = NextRandom(&rng) % 10 < 7 ? LeadSentence(doc.text)
                                           : LeadSentences(doc.text, 3);
    }
    if (!seen.insert(op.query).second) continue;
    Value body = Value::Object();
    body.Set("query", Value::Str(op.query));
    body.Set("k", Value::Uint(kTopK));
    const double u = Uniform(&rng);
    if (u < mix.window_share) {
      // A window around the source document's own timestamp, so the
      // windowed search still has hits.
      op.windowed = true;
      op.after_ms = doc.timestamp_ms - window / 2;
      op.before_ms = doc.timestamp_ms + window / 2;
      Value range = Value::Object();
      range.Set("after_ms", Value::Int(op.after_ms));
      range.Set("before_ms", Value::Int(op.before_ms));
      Value filter = Value::Object();
      filter.Set("time_range", std::move(range));
      body.Set("filter", std::move(filter));
    } else if (u < mix.window_share + mix.recency_share) {
      op.recency = true;
      Value ranking = Value::Object();
      ranking.Set("recency_half_life_s", Value::Number(86400.0));
      body.Set("ranking", std::move(ranking));
    }
    op.body = body.Dump();
    pool.push_back(std::move(op));
  }
  return pool;
}

Reply Call(newslink::net::HttpClient* client, const char* method,
           const std::string& path, const std::string& body) {
  newslink::net::HttpClientOptions options;
  options.deadline_seconds = 10.0;
  Reply reply;
  auto result = client->Call(method, path, body, options);
  if (!result.ok()) {
    reply.error = result.status().ToString();
    return reply;
  }
  reply.transport_ok = true;
  reply.status = result->status;
  reply.body = std::move(result->body);
  return reply;
}

namespace {

/// Failure bookkeeping shared by every generator thread.
class Failures {
 public:
  void Record(const std::string& what) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (++printed_ <= 8) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
  uint64_t count() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> failed_{0};
  std::mutex mu_;
  int printed_ = 0;
};

/// Everything a check needs to know about the collection.
struct Truth {
  const Inputs* in = nullptr;
  std::unordered_map<std::string, int64_t> ts_by_id;  // corpus + heldout
};

Value ParseOk(const Reply& reply, int want_status, std::string* error) {
  if (!reply.transport_ok) {
    *error = reply.error;
    return Value();
  }
  if (reply.status != want_status) {
    *error = newslink::StrCat("HTTP ", reply.status, ": ",
                              reply.body.substr(0, 160));
    return Value();
  }
  auto parsed = newslink::json::Parse(reply.body);
  if (!parsed.ok()) {
    *error = parsed.status().ToString();
    return Value();
  }
  return std::move(parsed).value();
}

/// Shape, order and time-window checks of one /v1/search answer.
bool CheckSearch(const Op& op, const Value& response, const Truth& truth,
                 size_t k, std::string* error) {
  const Value* hits = response.Find("hits");
  if (hits == nullptr || !hits->is_array() || hits->size() > k) {
    *error = "search answer without a hits array of at most k entries";
    return false;
  }
  double last = INFINITY;
  for (const Value& hit : hits->items()) {
    const Value* score_field = hit.Find("score");
    const Value* row_field = hit.Find("doc_index");
    if (score_field == nullptr || !score_field->is_number() ||
        row_field == nullptr || !row_field->is_number()) {
      *error = "hit without a numeric score and doc_index";
      return false;
    }
    const double score = score_field->AsDouble();
    if (!(score <= last)) {
      *error = "hits not in score order";
      return false;
    }
    last = score;
    if (!op.windowed) continue;
    int64_t ts = 0;
    if (const Value* id = hit.Find("doc_id")) {
      auto it = truth.ts_by_id.find(id->AsString());
      if (it == truth.ts_by_id.end()) {
        *error = "unknown doc_id " + id->AsString();
        return false;
      }
      ts = it->second;
    } else {
      const uint64_t row = row_field->AsUint();
      if (row >= truth.in->corpus.size()) {
        *error = "doc_index out of range";
        return false;
      }
      ts = truth.in->corpus.doc(row).timestamp_ms;
    }
    if (ts < op.after_ms || ts >= op.before_ms) {
      *error = newslink::StrCat("hit at ", ts, " outside [", op.after_ms,
                                ", ", op.before_ms, ")");
      return false;
    }
  }
  return true;
}

/// Bucket doc_counts must add up to total_hits (the buckets partition the
/// scoped hit set).
bool CheckExploreView(const Value& view, std::string* error) {
  const Value* buckets = view.Find("buckets");
  const Value* total = view.Find("total_hits");
  if (buckets == nullptr || total == nullptr ||
      view.Find("session") == nullptr) {
    *error = "explore answer missing session/buckets/total_hits";
    return false;
  }
  uint64_t sum = 0;
  for (const Value& b : buckets->items()) {
    const Value* count = b.Find("doc_count");
    if (count == nullptr || !count->is_number()) {
      *error = "explore bucket without a doc_count";
      return false;
    }
    sum += count->AsUint();
  }
  if (sum != total->AsUint()) {
    *error = newslink::StrCat("explore buckets sum to ", sum, ", total_hits ",
                              total->AsUint());
    return false;
  }
  return true;
}

struct Latencies {
  std::vector<double> search, explore, ingest, late;
  void Append(const Latencies& o) {
    search.insert(search.end(), o.search.begin(), o.search.end());
    explore.insert(explore.end(), o.explore.begin(), o.explore.end());
    ingest.insert(ingest.end(), o.ingest.begin(), o.ingest.end());
    late.insert(late.end(), o.late.begin(), o.late.end());
  }
};

void SleepUntilMs(double due_ms) {
  const double wait = due_ms - NowMs();
  if (wait > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(wait));
  }
}

/// The generator: pool, truth, counters, and the ops it can run.
class Generator {
 public:
  Generator(const Oracle& oracle, const Args& args)
      : oracle_(oracle),
        mix_(MixFromArgs(args)),
        seed_(static_cast<uint64_t>(args.GetInt("seed", 1))),
        port_(static_cast<uint16_t>(args.GetInt("port", 0))),
        rate_(args.GetDouble("rate", 100.0)),
        pool_(BuildSearchPool(oracle, mix_, seed_)),
        sampler_(pool_.size(), mix_.zipf) {
    truth_.in = &oracle.in;
    for (const auto* docs : {&oracle.in.corpus, &oracle.in.heldout}) {
      for (const auto& d : docs->docs()) truth_.ts_by_id[d.id] = d.timestamp_ms;
    }
  }

  const std::vector<Op>& pool() const { return pool_; }
  const PoolSampler& sampler() const { return sampler_; }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failures_.count(); }

  std::unique_ptr<newslink::net::HttpClient> Client() const {
    return std::make_unique<newslink::net::HttpClient>(kHost, port_, 1);
  }

  /// One search; true when it answered 200 and passed every check.
  bool Search(newslink::net::HttpClient* client, const Op& op,
              Value* response = nullptr) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    std::string error;
    Value parsed =
        ParseOk(Call(client, "POST", "/v1/search", op.body), 200, &error);
    if (error.empty()) CheckSearch(op, parsed, truth_, kTopK, &error);
    if (!error.empty()) {
      failures_.Record("search \"" + op.query.substr(0, 60) + "\": " + error);
      return false;
    }
    if (response != nullptr) *response = std::move(parsed);
    return true;
  }

  /// Phase 1: the socket's (doc_index, doc_id, score) lists vs the oracle.
  void OracleSample(size_t sample) {
    auto client = Client();
    size_t compared = 0;
    for (const Op& op : pool_) {
      if (compared == sample) break;
      if (op.recency) continue;  // decay depends on each engine's own "now"
      ++compared;
      Value got;
      if (!Search(client.get(), op, &got)) continue;
      auto decoded = newslink::net::SearchRequestFromJson(
          newslink::json::Parse(op.body).value());
      const newslink::baselines::SearchResponse want =
          oracle_.engine->Search(*decoded);
      // Documents and their order must match exactly. Scores are compared
      // bit for bit; a difference in the last bits only is counted apart
      // (ulp_mismatches_) so it stays visible without failing the answer.
      const Value& hits = *got.Find("hits");
      std::string diff;
      bool ulp_only = false;
      if (hits.size() != want.hits.size()) {
        diff = newslink::StrCat(hits.size(), " hits vs ", want.hits.size());
      }
      for (size_t i = 0; diff.empty() && i < want.hits.size(); ++i) {
        const Value& h = hits.at(i);
        const Value* id = h.Find("doc_id");
        const double score = h.Find("score")->AsDouble();
        const double expected = want.hits[i].score;
        if (h.Find("doc_index")->AsUint() != want.hits[i].doc_index ||
            (id != nullptr &&
             id->AsString() !=
                 oracle_.in.corpus.doc(want.hits[i].doc_index).id) ||
            std::abs(score - expected) > 1e-9 * std::abs(expected)) {
          diff = newslink::StrCat(
              "hit ", i, ": (", h.Find("doc_index")->AsUint(), ", ",
              newslink::json::NumberToString(score, false), ") vs (",
              want.hits[i].doc_index, ", ",
              newslink::json::NumberToString(expected, false), ")");
        } else if (score != expected) {
          ulp_only = true;
        }
      }
      if (!diff.empty()) {
        failures_.Record("socket answer differs from in-process Search for \"" +
                         op.query.substr(0, 60) + "\": " + diff);
      } else if (ulp_only) {
        ++ulp_mismatches_;
      }
    }
    if (ulp_mismatches_ > 0) {
      std::fprintf(stderr,
                   "WARNING: %zu of %zu answers match the in-process engine in "
                   "documents and order but not in the last bits of a score\n",
                   ulp_mismatches_, compared);
    }
    std::fprintf(stderr, "oracle: %zu searches compared bit for bit\n",
                 compared);
  }

  /// Warm-up: each of the first `count` pool entries once (the head of
  /// the skewed draw), over `kClients` threads, so the timed phases start
  /// from the same cache state whatever the host's speed.
  void WarmUp(size_t count) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kClients; ++t) {
      threads.emplace_back([&] {
        auto client = Client();
        const size_t n = std::min(count, pool_.size());
        for (size_t i; (i = next.fetch_add(1)) < n;) {
          Search(client.get(), pool_[i]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  /// Closed loop: `kClients` threads back to back; returns checked
  /// completions per second.
  double ClosedLoop(double seconds) {
    std::atomic<uint64_t> ok{0};
    const double start = NowMs();
    const double end = start + seconds * 1000.0;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        auto client = Client();
        uint64_t rng = seed_ * 7919 + t * 104729 + 1;
        while (NowMs() < end) {
          if (Search(client.get(), pool_[sampler_.Draw(&rng)])) {
            ok.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return static_cast<double>(ok.load()) / ((NowMs() - start) / 1000.0);
  }

  /// Start, drill into the first entity bucket, roll up. Returns the
  /// per-operation latencies (the first timed from `due_ms`).
  void ExploreSession(newslink::net::HttpClient* client,
                      const std::string& query, double due_ms,
                      Latencies* out) {
    Value start = Value::Object();
    start.Set("query", Value::Str(query));
    std::string error;
    attempted_.fetch_add(1, std::memory_order_relaxed);
    Value view = ParseOk(Call(client, "POST", "/v1/explore", start.Dump()),
                         200, &error);
    if (error.empty()) CheckExploreView(view, &error);
    if (!error.empty()) return failures_.Record("explore start: " + error);
    out->explore.push_back(NowMs() - due_ms);
    const uint64_t top_total = view.Find("total_hits")->AsUint();
    const std::string session = view.Find("session")->AsString();
    const Value* bucket = nullptr;
    for (const Value& b : view.Find("buckets")->items()) {
      if (b.Find("entity") != nullptr) {
        bucket = &b;
        break;
      }
    }
    if (bucket == nullptr) return;  // every hit in "other": nothing to drill
    const uint64_t drilled_total = bucket->Find("doc_count")->AsUint();

    Value drill = Value::Object();
    drill.Set("session", Value::Str(session));
    drill.Set("drill", Value::Uint(bucket->Find("entity")->AsUint()));
    attempted_.fetch_add(1, std::memory_order_relaxed);
    double sent = NowMs();
    Value inner = ParseOk(Call(client, "POST", "/v1/explore", drill.Dump()),
                          200, &error);
    if (error.empty() && CheckExploreView(inner, &error) &&
        inner.Find("total_hits")->AsUint() != drilled_total) {
      error = "drilled view does not hold exactly the bucket's documents";
    }
    if (!error.empty()) return failures_.Record("explore drill: " + error);
    out->explore.push_back(NowMs() - sent);

    Value up = Value::Object();
    up.Set("session", Value::Str(session));
    up.Set("up", Value::Bool(true));
    attempted_.fetch_add(1, std::memory_order_relaxed);
    sent = NowMs();
    Value outer = ParseOk(Call(client, "POST", "/v1/explore", up.Dump()),
                          200, &error);
    if (error.empty() && CheckExploreView(outer, &error) &&
        outer.Find("total_hits")->AsUint() != top_total) {
      error = "roll-up did not restore the top-level hit set";
    }
    if (!error.empty()) return failures_.Record("explore up: " + error);
    out->explore.push_back(NowMs() - sent);
  }

  /// POST one held-out document, then search its lead sentence: a 201 must
  /// mean the document is findable.
  void Ingest(newslink::net::HttpClient* client, size_t row, double due_ms,
              Latencies* out) {
    const newslink::corpus::Document& doc = oracle_.in.heldout.doc(row);
    Value body = Value::Object();
    body.Set("id", Value::Str(doc.id));
    body.Set("title", Value::Str(doc.title));
    body.Set("text", Value::Str(doc.text));
    body.Set("story_id", Value::Uint(doc.story_id));
    body.Set("timestamp_ms", Value::Int(doc.timestamp_ms));
    attempted_.fetch_add(1, std::memory_order_relaxed);
    std::string error;
    ParseOk(Call(client, "POST", "/v1/documents", body.Dump()), 201, &error);
    if (!error.empty()) return failures_.Record("ingest: " + error);
    out->ingest.push_back(NowMs() - due_ms);

    Op probe;
    probe.query = LeadSentence(doc.text);
    Value q = Value::Object();
    q.Set("query", Value::Str(probe.query));
    q.Set("k", Value::Uint(kTopK));
    probe.body = q.Dump();
    Value found;
    if (!Search(client, probe, &found)) return;
    for (const Value& hit : found.Find("hits")->items()) {
      const Value* id = hit.Find("doc_id");
      if (id != nullptr && id->AsString() == doc.id) return;
    }
    failures_.Record("ingested " + doc.id +
                     " not in the top-k of its lead sentence");
  }

  /// Open loop at `rate_` arrivals/s for `seconds`, served by `kClients`
  /// threads; latencies are timed from each arrival's scheduled time.
  Latencies OpenLoop(double seconds, double* backlog_max, bool* backlog_grew) {
    const size_t arrivals = static_cast<size_t>(seconds * rate_);
    const double interval = 1000.0 / rate_;
    const double t0 = NowMs() + 5.0;
    std::atomic<size_t> next{0};
    std::vector<double> late_by_arrival(arrivals, 0.0);
    std::atomic<int64_t> backlog{0};
    std::vector<Latencies> per_thread(kClients);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        auto client = Client();
        Latencies& lat = per_thread[t];
        for (size_t i; (i = next.fetch_add(1)) < arrivals;) {
          const double due = t0 + static_cast<double>(i) * interval;
          SleepUntilMs(due);
          const double now = NowMs();
          const int64_t due_count =
              static_cast<int64_t>((now - t0) / interval) + 1;
          int64_t seen = backlog.load();
          const int64_t waiting = due_count - static_cast<int64_t>(i) - 1;
          while (waiting > seen &&
                 !backlog.compare_exchange_weak(seen, waiting)) {
          }
          late_by_arrival[i] = now - due;
          uint64_t rng = seed_ * 0x9E37ull + i * 0x85EBCA6Bull + 17;
          const double u = Uniform(&rng);
          const Op& op = pool_[sampler_.Draw(&rng)];
          if (u < mix_.ingest_share) {
            const size_t row = next_ingest_.fetch_add(1);
            if (row < oracle_.in.heldout.size()) {
              Ingest(client.get(), row, due, &lat);
              continue;
            }
          } else if (u < mix_.ingest_share + mix_.explore_share) {
            ExploreSession(client.get(), op.query, due, &lat);
            continue;
          }
          if (Search(client.get(), op)) lat.search.push_back(NowMs() - due);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Latencies all;
    for (const Latencies& l : per_thread) all.Append(l);
    all.late = late_by_arrival;
    *backlog_max = static_cast<double>(std::max<int64_t>(backlog.load(), 0));
    // A backlog that grows shows as lateness rising through the phase.
    const size_t quarter = std::max<size_t>(arrivals / 4, 1);
    const std::vector<double> first(late_by_arrival.begin(),
                                    late_by_arrival.begin() + quarter);
    const std::vector<double> last(late_by_arrival.end() - quarter,
                                   late_by_arrival.end());
    *backlog_grew =
        Quantile(last, 0.5) > std::max(5.0, 4 * Quantile(first, 0.5));
    if (next_ingest_.load() > oracle_.in.heldout.size()) {
      std::fprintf(stderr, "note: held-out documents ran out; later ingest "
                           "arrivals were sent as searches\n");
    }
    return all;
  }

  size_t ulp_mismatches() const { return ulp_mismatches_; }
  double rate() const { return rate_; }
  const Mix& mix() const { return mix_; }

 private:
  const Oracle& oracle_;
  const Mix mix_;
  const uint64_t seed_;
  const uint16_t port_;
  const double rate_;
  const std::vector<Op> pool_;
  const PoolSampler sampler_;
  Truth truth_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<size_t> next_ingest_{0};  // held-out rows sent so far
  Failures failures_;
  size_t ulp_mismatches_ = 0;
};

}  // namespace

int LoadMain(const Args& args) {
  const std::unique_ptr<Oracle> oracle =
      LoadOracle(args.Get("dir", "."), args.Get("oracle", ""));
  Generator gen(*oracle, args);
  const double seconds = args.GetDouble("seconds", 10.0);
  const bool trace = args.GetInt("trace", 0) != 0;
  Report report;

  gen.OracleSample(kOracleSample);

  gen.WarmUp(kWarmUp);
  if (gen.mix().explore_share > 0) {
    auto client = gen.Client();
    Latencies ignored;
    gen.ExploreSession(client.get(), gen.pool().front().query, NowMs(),
                       &ignored);
  }

  // Untraced runs alternate closed bursts and open windows over several
  // rounds, so a transient stall on the host moves one round, not the
  // result (see below).
  const int rounds = trace ? 1 : kRounds;
  std::vector<double> qps, p50;
  Latencies lat;  // every round pooled
  double backlog_max = 0.0;
  bool backlog_grew = false;
  for (int r = 0; r < rounds; ++r) {
    if (!trace) qps.push_back(gen.ClosedLoop(0.3 * seconds / rounds));
    double round_backlog = 0.0;
    bool round_grew = false;
    const Latencies round = gen.OpenLoop((trace ? 0.4 : 0.7) * seconds / rounds,
                                         &round_backlog, &round_grew);
    backlog_max = std::max(backlog_max, round_backlog);
    backlog_grew = backlog_grew || round_grew;
    p50.push_back(Quantile(round.search, 0.5));
    lat.Append(round);
    std::fprintf(stderr,
                 "round %d: %.1f searches/s closed; open p50 %.3f ms, "
                 "p99 %.3f ms\n",
                 r, trace ? 0.0 : qps.back(), p50.back(),
                 Quantile(round.search, 0.99));
  }

  if (backlog_grew) {
    std::fprintf(stderr,
                 "WARNING: open-loop backlog grew during the run; the "
                 "arrival rate is above what the server sustains\n");
  }
  std::fprintf(stderr,
               "open loop: %.0f arrivals/s, %zu threads, %d rounds; %zu "
               "searches, %zu explore ops, %zu ingests timed\n",
               gen.rate(), kClients, rounds, lat.search.size(),
               lat.explore.size(), lat.ingest.size());

  // The tail pools every round: it is made of rare events (an expensive
  // LCAG miss, a search queued behind an ingest, a host stall), and a
  // round holds too few of them.
  report.Add("search_p99_ms", Quantile(lat.search, 0.99));
  // A stall from another tenant of the host only ever slows a round down,
  // so p50 and throughput take the quartile on the fast side over the
  // rounds: the rounds a stall hit drop out without the result resting on
  // one lucky round.
  report.Add("search_p50_ms", Quantile(p50, 0.25));
  if (trace) {
    RunLayers(*oracle, gen.pool(), gen.sampler(), args, 0.6 * seconds, &report);
  } else {
    report.Add("search_qps", Quantile(qps, 0.75));
    if (!lat.explore.empty()) {
      report.Add("explore_p50_ms", Quantile(lat.explore, 0.50));
      report.Add("explore_p99_ms", Quantile(lat.explore, 0.99));
    }
    if (!lat.ingest.empty()) {
      report.Add("ingest_p50_ms", Quantile(lat.ingest, 0.50));
      report.Add("ingest_p99_ms", Quantile(lat.ingest, 0.99));
    }
    report.Add("search_samples", static_cast<double>(lat.search.size()));
  }
  report.Add("loadgen.late_p99_ms", Quantile(lat.late, 0.99));
  report.Add("loadgen.backlog_max", backlog_max);
  report.Add("check.score_ulp_mismatches",
             static_cast<double>(gen.ulp_mismatches()));
  report.attempted += gen.attempted();
  report.failed += gen.failed();
  report.Print();
  return 0;
}

}  // namespace nlbench
