// The traced layer pass of `nlbench load --trace 1`: times calls into each
// module's public functions on the in-process oracle engine, from this
// file only (no tracing inside the program). Requests are drawn from the
// workload's own pool with its own skew. Even-numbered requests run the
// whole in-process Search, untraced, and the same request over the socket
// (which gives the net overhead); odd-numbered requests run the search
// pipeline decomposed into its layer calls under one root span:
//
//   request (root)
//     net.decode       net::DecodeSearchEnvelope
//     embed.embed      NewsLinkEngine::EmbedText (its own NLP + NE)
//     newslink.prepare NewsLinkEngine::PrepareShardQuery + PinEpoch
//     ir.plan          NewsLinkEngine::PlanShard
//     newslink.merge   MergeShardPlan
//     ir.search        NewsLinkEngine::SearchShard
//     newslink.merge   MergeShardCandidates
//     net.encode       net::SearchResponseToJson + Dump
//
// plus, outside the root, text.segment (SegmentText), net.http_parse
// (HttpRequestParser) and net.shard_rpc (ShardClient Plan + Search against
// the running server or shard 0). After the search loop come explore
// sessions (ExploreEngine) and AddDocument of held-out documents. Spans
// are kept in memory and written to --spans-out as JSON lines at the end;
// the tracing overhead is the measured cost of recording them, per
// request, against the untraced Search p50.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"
#include "kg/facet_hierarchy.h"
#include "load.h"
#include "net/api_json.h"
#include "net/http.h"
#include "net/shard_client.h"
#include "newslink/explore_engine.h"
#include "newslink/shard_merge.h"

namespace nlbench {

namespace {

/// One recorded span. `parent` is 0 for a root; ids start at 1.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t request = 0;
  std::string layer;
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  double dur() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  uint32_t Begin(const char* layer, const char* name, uint32_t parent,
                 uint32_t request) {
    Span s;
    s.id = static_cast<uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.request = request;
    s.layer = layer;
    s.name = name;
    s.start_ms = NowMs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  double End(uint32_t id) {
    Span& s = spans_[id - 1];
    s.end_ms = NowMs();
    return s.dur();
  }
  template <typename F>
  double Time(const char* layer, const char* name, uint32_t parent,
              uint32_t request, F&& f) {
    const uint32_t id = Begin(layer, name, parent, request);
    f();
    return End(id);
  }
  const std::vector<Span>& spans() const { return spans_; }

  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%u,\"parent\":%u,\"request\":%u,\"layer\":\"%s\","
                   "\"name\":\"%s\",\"start_ms\":%.6f,\"dur_ms\":%.6f}\n",
                   s.id, s.parent, s.request, s.layer.c_str(), s.name.c_str(),
                   s.start_ms, s.dur());
    }
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
};

/// Engine registry counters read before and after a phase.
struct Counters {
  std::map<std::string, double> v;
  static Counters Read(const newslink::NewsLinkEngine& engine) {
    Counters c;
    for (const char* name :
         {"lcag_cache_hits_total", "lcag_cache_misses_total",
          "lcag_cache_evictions_total", "lcag_sketch_hits_total",
          "lcag_sketch_fallbacks_total", "embedder_budget_exhausted_total",
          "bow_docs_scored_total", "bon_docs_scored_total",
          "bow_maxscore_blocks_skipped_total"}) {
      c.v[name] = static_cast<double>(engine.Metrics().CounterValue(name));
    }
    return c;
  }
  double Delta(const Counters& before, const std::string& name) const {
    return v.at(name) - before.v.at(name);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string RawHttpRequest(const std::string& body) {
  return newslink::StrCat("POST /v1/search HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Content-Type: application/json\r\nContent-Length: ",
                          body.size(), "\r\n\r\n", body);
}

}  // namespace

void RunLayers(const Oracle& oracle, const std::vector<Op>& pool,
               const PoolSampler& sampler, const Args& args, double seconds,
               Report* report) {
  newslink::NewsLinkEngine& engine = *oracle.engine;
  const uint16_t port = static_cast<uint16_t>(args.GetInt("port", 0));
  std::vector<std::string> rpc =
      newslink::Split(args.Get("shard-ports", ""), ',');
  rpc.erase(std::remove(rpc.begin(), rpc.end(), ""), rpc.end());
  const uint16_t rpc_port =
      rpc.empty() ? port : static_cast<uint16_t>(std::stoul(rpc.front()));
  newslink::net::ShardClient shard(0, kHost, rpc_port);
  newslink::net::HttpClient socket(kHost, port, 1);
  uint64_t rng = static_cast<uint64_t>(args.GetInt("seed", 1)) * 31 + 7;

  Tracer tracer;
  std::map<std::string, std::vector<double>> ms;  // per-call samples
  std::vector<double> entities, root_ms, ne_ms, ns_ms;
  double hits_returned = 0, shard_calls = 0, search_calls = 0;
  uint64_t rpc_failures = 0;

  // Same warm start as the socket phases: the head of the draw cached.
  for (size_t i = 0; i < std::min(pool.size(), kWarmUp); ++i) {
    engine.EmbedText(pool[i].query);
  }

  const double start = NowMs();
  const double search_end = start + 0.7 * seconds * 1000.0;
  const Counters before = Counters::Read(engine);
  for (uint32_t r = 1; NowMs() < search_end; ++r) {
    const Op& op = pool[sampler.Draw(&rng)];
    const std::string raw = RawHttpRequest(op.body);
    tracer.Time("net", "http_parse", 0, r, [&] {
      newslink::net::HttpRequestParser parser;
      parser.Consume(raw);
    });
    ms["net.http_parse"].push_back(tracer.spans().back().dur());
    tracer.Time("text", "segment", 0, r, [&] {
      size_t n = 0;
      for (const auto& s : engine.SegmentText(op.query).segments) {
        n += s.entities.size();
      }
      entities.push_back(static_cast<double>(n));
    });
    ms["text.segment"].push_back(tracer.spans().back().dur());

    if (r % 2 == 0) {
      const newslink::baselines::SearchRequest request =
          newslink::net::SearchRequestFromJson(
              newslink::json::Parse(op.body).value())
              .value();
      const double t = NowMs();
      const newslink::baselines::SearchResponse response =
          engine.Search(request);
      const double search_ms = NowMs() - t;
      ms["newslink.search"].push_back(search_ms);
      const double s = NowMs();
      const Reply reply = Call(&socket, "POST", "/v1/search", op.body);
      const double socket_ms = NowMs() - s;
      if (reply.transport_ok && reply.status == 200) {
        ms["net.overhead"].push_back(socket_ms - search_ms);
      }
      hits_returned += static_cast<double>(response.hits.size());
      search_calls += 1;
      continue;
    }

    // The decomposed pipeline under one root span.
    const uint32_t root = tracer.Begin("request", "request", 0, r);
    newslink::baselines::SearchRequest request;
    ms["net.decode"].push_back(tracer.Time("net", "decode", root, r, [&] {
      request =
          newslink::net::DecodeSearchEnvelope(op.body, 64)->requests.front();
    }));
    newslink::embed::DocumentEmbedding query_embedding;
    const double ne = tracer.Time("embed", "embed", root, r, [&] {
      query_embedding = engine.EmbedText(request.query);
    });
    ms["embed.embed"].push_back(ne);
    newslink::ShardQuery query;
    newslink::ShardEpochPin pin;
    tracer.Time("newslink", "prepare", root, r, [&] {
      query = engine.PrepareShardQuery(request, query_embedding);
      pin = engine.PinEpoch();
    });
    newslink::ShardPlan plan;
    const double plan_ms =
        tracer.Time("ir", "plan", root, r,
                    [&] { plan = engine.PlanShard(query, pin); });
    ms["ir.plan"].push_back(plan_ms);
    newslink::ShardGlobalStats global;
    double merge = tracer.Time("newslink", "merge", root, r, [&] {
      newslink::MergeShardPlan(plan, &global);
    });
    newslink::ShardSearchResult result;
    const double search_ms = tracer.Time("ir", "search", root, r, [&] {
      result = engine.SearchShard(query, global, pin);
    });
    ms["ir.search"].push_back(search_ms);
    std::vector<newslink::ir::ScoredDoc> merged;
    merge += tracer.Time("newslink", "merge", root, r, [&] {
      newslink::ShardFuseParams params;
      params.beta = request.beta.value_or(engine.beta());
      params.use_bow = query.use_bow;
      params.use_bon = query.use_bon;
      params.k = request.k;
      params.recency_half_life_s = query.recency_half_life_s;
      params.now_ms = query.now_ms;
      params.has_timestamps = global.has_timestamps;
      merged = newslink::MergeShardCandidates(
          params, {&result}, [](size_t, uint32_t row) { return row; });
    });
    ms["newslink.merge"].push_back(merge);
    ms["net.encode"].push_back(tracer.Time("net", "encode", root, r, [&] {
      newslink::baselines::SearchResponse response;
      for (const auto& d : merged) {
        response.hits.push_back({d.doc, d.score, {}});
      }
      newslink::net::SearchResponseToJson(response, &oracle.in.corpus,
                                          &oracle.in.graph)
          .Dump();
    }));
    root_ms.push_back(tracer.End(root));
    ne_ms.push_back(ne);
    ns_ms.push_back(plan_ms + search_ms);
    hits_returned += static_cast<double>(merged.size());
    shard_calls += 1;

    ms["net.shard_rpc"].push_back(tracer.Time("net", "shard_rpc", 0, r, [&] {
      auto planned = shard.Plan(query, 5.0);
      if (!planned.ok()) {
        ++rpc_failures;
        return;
      }
      newslink::ShardGlobalStats stats;
      newslink::MergeShardPlan(planned->plan, &stats);
      if (!shard.Search(query, stats, planned->plan.epoch, 5.0).ok()) {
        ++rpc_failures;
      }
    }));
  }
  const Counters after = Counters::Read(engine);

  // Explore sessions on the same engine: start, drill, roll up.
  const newslink::kg::FacetHierarchy hierarchy(&oracle.in.graph);
  newslink::ExploreEngine explore(&engine, &hierarchy);
  const double explore_end = NowMs() + 0.15 * seconds * 1000.0;
  while (NowMs() < explore_end) {
    newslink::baselines::SearchRequest request;
    request.query = pool[sampler.Draw(&rng)].query;
    request.k = 0;
    double t = NowMs();
    auto view = explore.StartSession(request);
    ms["newslink.explore_start"].push_back(NowMs() - t);
    if (!view.ok()) continue;
    for (const auto& bucket : view->buckets) {
      if (bucket.other()) continue;
      t = NowMs();
      const bool drilled =
          explore.DrillDown(view->session_id, bucket.node).ok();
      ms["newslink.explore_nav"].push_back(NowMs() - t);
      if (drilled) {
        t = NowMs();
        explore.RollUp(view->session_id);
        ms["newslink.explore_nav"].push_back(NowMs() - t);
      }
      break;
    }
  }

  // Ingestion last: it changes the engine the searches above measured.
  const double ingest_end = NowMs() + 0.15 * seconds * 1000.0;
  for (size_t row = 0;
       row < oracle.in.heldout.size() && NowMs() < ingest_end; ++row) {
    const double t = NowMs();
    engine.AddDocument(oracle.in.heldout.doc(row));
    ms["newslink.add_document"].push_back(NowMs() - t);
  }
  tracer.Write(args.Get("spans-out", "spans.jsonl"));

  // Self time per layer and root coverage, from the recorded spans.
  std::map<std::string, double> self;
  std::vector<double> child_sum(tracer.spans().size() + 1, 0.0);
  for (const Span& s : tracer.spans()) {
    if (s.parent != 0) child_sum[s.parent] += s.dur();
  }
  double root_total = 0, covered = 0;
  for (const Span& s : tracer.spans()) {
    self[s.layer] += s.dur() - child_sum[s.id];
    if (s.parent == 0 && s.layer == "request") {
      root_total += s.dur();
      covered += child_sum[s.id];
    }
  }
  const double requests = std::max(shard_calls + search_calls, 1.0);

  const double lookups = after.Delta(before, "lcag_cache_hits_total") +
                         after.Delta(before, "lcag_cache_misses_total");
  const double sketch_lookups =
      after.Delta(before, "lcag_sketch_hits_total") +
      after.Delta(before, "lcag_sketch_fallbacks_total");
  const double scored = after.Delta(before, "bow_docs_scored_total") +
                        after.Delta(before, "bon_docs_scored_total");
  const double calls = shard_calls + search_calls;

  // NE's share of the slowest 1% of decomposed requests (the p99 tail).
  const double tail_cut = Quantile(root_ms, 0.99);
  double tail_root = 0, tail_ne = 0;
  for (size_t i = 0; i < root_ms.size(); ++i) {
    if (root_ms[i] >= tail_cut) {
      tail_root += root_ms[i];
      tail_ne += ne_ms[i];
    }
  }
  double ne_sum = 0, ns_sum = 0;
  for (size_t i = 0; i < root_ms.size(); ++i) {
    ne_sum += ne_ms[i];
    ns_sum += ns_ms[i];
  }

  auto p = [&](const std::string& key, double q) {
    return Quantile(ms[key], q);
  };
  report->Add("text.segment_ms.p50", p("text.segment", 0.5));
  report->Add("text.segment_ms.p99", p("text.segment", 0.99));
  report->Add("text.entities_per_query", Quantile(entities, 0.5));
  report->Add("embed.embed_ms.p50", p("embed.embed", 0.5));
  report->Add("embed.embed_ms.p99", p("embed.embed", 0.99));
  report->Add("embed.cache_hit_ratio",
              Ratio(after.Delta(before, "lcag_cache_hits_total"), lookups));
  report->Add("embed.cache_evictions",
              after.Delta(before, "lcag_cache_evictions_total"));
  report->Add("embed.sketch_hit_ratio",
              Ratio(after.Delta(before, "lcag_sketch_hits_total"),
                    sketch_lookups));
  report->Add("embed.budget_exhausted",
              after.Delta(before, "embedder_budget_exhausted_total"));
  report->Add("ir.plan_ms.p50", p("ir.plan", 0.5));
  report->Add("ir.search_ms.p50", p("ir.search", 0.5));
  report->Add("ir.search_ms.p99", p("ir.search", 0.99));
  report->Add("ir.docs_scored_per_query", Ratio(scored, calls));
  report->Add("ir.blocks_skipped_per_query",
              Ratio(after.Delta(before, "bow_maxscore_blocks_skipped_total"),
                    calls));
  report->Add("ir.topk_yield", Ratio(hits_returned, scored));
  report->Add("newslink.search_ms.p50", p("newslink.search", 0.5));
  report->Add("newslink.search_ms.p99", p("newslink.search", 0.99));
  report->Add("newslink.add_document_ms.p50", p("newslink.add_document", 0.5));
  report->Add("newslink.add_document_ms.p99", p("newslink.add_document", 0.99));
  report->Add("newslink.explore_start_ms.p50",
              p("newslink.explore_start", 0.5));
  report->Add("newslink.explore_nav_ms.p50", p("newslink.explore_nav", 0.5));
  report->Add("newslink.merge_ms.p50", p("newslink.merge", 0.5));
  report->Add("net.decode_us.p50", 1000.0 * p("net.decode", 0.5));
  report->Add("net.encode_us.p50", 1000.0 * p("net.encode", 0.5));
  report->Add("net.http_parse_us.p50", 1000.0 * p("net.http_parse", 0.5));
  report->Add("net.shard_rpc_ms.p50", p("net.shard_rpc", 0.5));
  report->Add("net.overhead_ms.p50", p("net.overhead", 0.5));
  for (const char* layer : {"text", "embed", "ir", "newslink", "net"}) {
    report->Add(newslink::StrCat("trace.self_ms.", layer),
                self[layer] / requests);
  }
  report->Add("trace.coverage", Ratio(covered, root_total));
  report->Add("trace.ne_share", Ratio(ne_sum, root_total));
  report->Add("trace.ns_share", Ratio(ns_sum, root_total));
  report->Add("trace.ne_share_p99_tail", Ratio(tail_ne, tail_root));
  // Tracing overhead: what recording this run's spans cost per request,
  // against the untraced whole-Search p50.
  Tracer probe;
  const double probe_start = NowMs();
  for (uint32_t i = 0; i < 10000; ++i) probe.End(probe.Begin("x", "x", 0, i));
  const double span_ms = (NowMs() - probe_start) / 10000;
  report->Add("trace.overhead_ratio",
              1.0 + Ratio(span_ms *
                              static_cast<double>(tracer.spans().size()) /
                              requests,
                          p("newslink.search", 0.5)));

  std::fprintf(stderr,
               "layers: %.0f requests (%.0f decomposed, %.0f whole Search); "
               "LCAG cache %.0f hits of %.0f lookups; sketch %.0f of %.0f; "
               "%.0f docs scored over %.0f calls, %.0f hits returned; "
               "%zu spans; %llu shard RPC failures\n",
               requests, shard_calls, search_calls,
               after.Delta(before, "lcag_cache_hits_total"), lookups,
               after.Delta(before, "lcag_sketch_hits_total"), sketch_lookups,
               scored, calls, hits_returned, tracer.spans().size(),
               static_cast<unsigned long long>(rpc_failures));
  report->attempted += static_cast<uint64_t>(shard_calls);
  report->failed += rpc_failures;
}

}  // namespace nlbench
