#include "net/coordinator_service.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "net/api_json.h"
#include "net/search_service.h"
#include "net/status_http.h"

namespace newslink {
namespace net {

namespace {

HttpResponse JsonOk(const json::Value& body, int status = 200) {
  HttpResponse response;
  response.status = status;
  response.body = body.Dump();
  response.body.push_back('\n');
  return response;
}

}  // namespace

CoordinatorService::CoordinatorService(
    const newslink::NewsLinkEngine* prep,
    std::vector<std::unique_ptr<ShardClient>> shards,
    CoordinatorOptions options)
    : prep_(prep),
      shards_(std::move(shards)),
      options_(options),
      pool_(std::max<size_t>(shards_.size(), 1)),
      scatter_gather_(&pool_, prep_->mutable_metrics(), nullptr),
      rejected_(prep_->mutable_metrics()->GetCounter(
          kSearchRejected, "searches refused by admission control")) {
  NL_CHECK(!shards_.empty()) << "coordinator needs at least one shard";
  const size_t n = shards_.size();
  backends_.reserve(n);
  targets_.prep = prep_;
  for (size_t s = 0; s < n; ++s) {
    backends_.emplace_back(shards_[s].get(), options_.shard_deadline_seconds);
    targets_.partitions.push_back({&backends_[s], StrCat("shard", s)});
  }
  // Round-robin partition: shard s's local row l is global row l*n + s.
  targets_.to_global = [n](size_t s, uint32_t local) {
    return static_cast<uint32_t>(local * n + s);
  };
}

std::string CoordinatorService::name() const {
  return StrCat("Coordinator[", shards_.size(), " shards]");
}

void CoordinatorService::RegisterRoutes(HttpServer* server) {
  server->Handle("POST", "/v1/search",
                 [this](const HttpRequest& r) { return HandleSearch(r); });
  server->Handle("GET", "/metrics",
                 [this](const HttpRequest& r) { return HandleMetrics(r); });
  server->Handle("GET", "/healthz",
                 [this](const HttpRequest& r) { return HandleHealth(r); });
  server->Handle("GET", "/v1/stats",
                 [this](const HttpRequest& r) { return HandleStats(r); });
}

baselines::SearchResponse CoordinatorService::Search(
    const baselines::SearchRequest& request) const {
  return scatter_gather_.Search(request, targets_);
}

HttpResponse CoordinatorService::HandleSearch(const HttpRequest& request) {
  Result<SearchEnvelope> envelope =
      DecodeSearchEnvelope(request.body, options_.max_batch);
  if (!envelope.ok()) return ErrorResponse(envelope.status());
  const bool batched = envelope->batched;
  std::vector<baselines::SearchRequest>& requests = envelope->requests;
  for (const baselines::SearchRequest& r : requests) {
    if (r.explain) {
      return ErrorResponse(Status::InvalidArgument(
          "\"explain\" is not available on a coordinator (document "
          "embeddings live on the shards; query a shard directly)"));
    }
  }

  if (inflight_searches_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_inflight_searches) {
    inflight_searches_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_->Inc();
    return ErrorResponseAt(503, "search admission limit reached");
  }
  std::vector<baselines::SearchResponse> responses(requests.size());
  pool_.ParallelFor(requests.size(),
                    [&](size_t i) { responses[i] = Search(requests[i]); });
  inflight_searches_.fetch_sub(1, std::memory_order_acq_rel);

  // No corpus or graph here: hits carry indices and scores only.
  if (batched) {
    json::Value out = json::Value::Array();
    for (const baselines::SearchResponse& response : responses) {
      out.Append(SearchResponseToJson(response, nullptr, nullptr));
    }
    return JsonOk(out);
  }
  return JsonOk(SearchResponseToJson(responses.front(), nullptr, nullptr));
}

HttpResponse CoordinatorService::HandleStats(const HttpRequest&) const {
  json::Value out = json::Value::Object();
  out.Set("engine", json::Value::Str(name()));
  out.Set("shards_total",
          json::Value::Uint(static_cast<uint64_t>(shards_.size())));
  json::Value shard_blocks = json::Value::Array();
  for (const std::unique_ptr<ShardClient>& shard : shards_) {
    shard_blocks.Append(shard->HealthJson());
  }
  out.Set("shards", std::move(shard_blocks));
  Result<json::Value> registry_json =
      json::Parse(prep_->Metrics().RenderJson());
  if (registry_json.ok()) out.Set("metrics", std::move(*registry_json));
  return JsonOk(out);
}

HttpResponse CoordinatorService::HandleHealth(const HttpRequest&) const {
  json::Value out = json::Value::Object();
  out.Set("status", json::Value::Str("ok"));
  out.Set("engine", json::Value::Str(name()));
  return JsonOk(out);
}

HttpResponse CoordinatorService::HandleMetrics(const HttpRequest&) const {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = prep_->Metrics().RenderPrometheus();
  return response;
}

}  // namespace net
}  // namespace newslink
