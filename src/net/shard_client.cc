#include "net/shard_client.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "net/http_client.h"
#include "net/status_http.h"

namespace newslink {
namespace net {

std::string ShardClient::address() const {
  return StrCat(host_, ":", port_);
}

Result<json::Value> ShardClient::Call(const char* path,
                                      const json::Value& body,
                                      double deadline_seconds) const {
  HttpClientOptions options;
  options.deadline_seconds = deadline_seconds;
  Result<HttpClientResponse> http = http_.Post(path, body.Dump(), options);
  Status status = Status::OK();
  json::Value parsed;
  if (!http.ok()) {
    status = http.status();
  } else {
    Result<json::Value> decoded = json::Parse(http->body);
    if (!decoded.ok()) {
      status = Status::IOError(
          StrCat("unparseable response body: ", decoded.status().message()));
    } else if (http->status != 200) {
      // The server's {"error": {"code", "message"}} body round-trips back
      // into the Status the handler returned (409 → FailedPrecondition).
      status = Status::Internal(StrCat("shard answered HTTP ", http->status));
      if (const json::Value* err = decoded->Find("error")) {
        const json::Value* code = err->Find("code");
        const json::Value* message = err->Find("message");
        if (code != nullptr && code->is_string() && message != nullptr &&
            message->is_string()) {
          status = StatusFromWire(code->AsString(), message->AsString());
        }
      }
    } else {
      parsed = std::move(*decoded);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (status.ok()) {
    healthy_ = true;
    last_error_.clear();
    return parsed;
  }
  healthy_ = false;
  last_error_ = status.ToString();
  return status;
}

Result<ShardPlanRpcResponse> ShardClient::Plan(const ShardQuery& query,
                                               double deadline_seconds) const {
  ShardPlanRpcRequest request;
  request.shard = shard_;
  request.deadline_seconds = deadline_seconds;
  request.query = query;
  NL_ASSIGN_OR_RETURN(
      json::Value body,
      Call("/v1/shard/plan", ShardPlanRequestToJson(request),
           deadline_seconds));
  Result<ShardPlanRpcResponse> decoded = ShardPlanResponseFromJson(body);
  std::lock_guard<std::mutex> lock(mu_);
  if (!decoded.ok()) {
    healthy_ = false;
    last_error_ = decoded.status().ToString();
  } else {
    epoch_ = decoded->plan.epoch;
  }
  return decoded;
}

Result<ShardSearchRpcResponse> ShardClient::Search(
    const ShardQuery& query, const ShardGlobalStats& global,
    uint64_t expected_epoch, double deadline_seconds) const {
  ShardSearchRpcRequest request;
  request.shard = shard_;
  request.expected_epoch = expected_epoch;
  request.deadline_seconds = deadline_seconds;
  request.query = query;
  request.global = global;
  NL_ASSIGN_OR_RETURN(
      json::Value body,
      Call("/v1/shard/search", ShardSearchRequestToJson(request),
           deadline_seconds));
  Result<ShardSearchRpcResponse> decoded = ShardSearchResponseFromJson(body);
  std::lock_guard<std::mutex> lock(mu_);
  if (!decoded.ok()) {
    healthy_ = false;
    last_error_ = decoded.status().ToString();
  } else {
    epoch_ = decoded->result.epoch;
  }
  return decoded;
}

json::Value ShardClient::HealthJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Value out = json::Value::Object();
  out.Set("shard", json::Value::Uint(static_cast<uint64_t>(shard_)));
  out.Set("address", json::Value::Str(StrCat(host_, ":", port_)));
  out.Set("healthy", json::Value::Bool(healthy_));
  out.Set("epoch", json::Value::Uint(epoch_));
  out.Set("connection_reuses", json::Value::Uint(http_.connection_reuses()));
  out.Set("connection_reconnects",
          json::Value::Uint(http_.connection_reconnects()));
  if (!last_error_.empty()) {
    out.Set("last_error", json::Value::Str(last_error_));
  }
  return out;
}

double ShardClientBackend::RpcDeadline(double budget_seconds) const {
  if (max_rpc_seconds_ <= 0.0) return budget_seconds;
  return budget_seconds > 0.0 ? std::min(budget_seconds, max_rpc_seconds_)
                              : max_rpc_seconds_;
}

Result<ShardPlan> ShardClientBackend::Plan(const ShardQuery& query,
                                           double budget_seconds) const {
  NL_ASSIGN_OR_RETURN(ShardPlanRpcResponse response,
                      client_->Plan(query, RpcDeadline(budget_seconds)));
  return std::move(response.plan);
}

Result<ShardSearchResult> ShardClientBackend::Search(
    const ShardQuery& query, const ShardGlobalStats& global,
    uint64_t expected_epoch, double budget_seconds) const {
  NL_ASSIGN_OR_RETURN(ShardSearchRpcResponse response,
                      client_->Search(query, global, expected_epoch,
                                      RpcDeadline(budget_seconds)));
  return std::move(response.result);
}

}  // namespace net
}  // namespace newslink
