// Typed RPC stub for one shard server (DESIGN.md Sec. 12): wraps a
// keep-alive net/HttpClient + the api_json shard codecs into Plan/Search
// calls the coordinator can fan out. The client also keeps the shard's
// last-known health (reachable? which epoch? what failed?) so /v1/stats
// can report per-shard state without extra probes. ShardClientBackend
// puts a client behind the scatter-gather core's ShardBackend interface.

#ifndef NEWSLINK_NET_SHARD_CLIENT_H_
#define NEWSLINK_NET_SHARD_CLIENT_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "common/json.h"
#include "common/result.h"
#include "net/api_json.h"
#include "net/http_client.h"
#include "newslink/scatter_gather.h"

namespace newslink {
namespace net {

/// \brief RPC client for one shard of a scatter-gather deployment.
///
/// RPCs ride the owned HttpClient's keep-alive connection pool (stale
/// connections are retried once on a fresh one; see net/http_client.h) and
/// the health bookkeeping is thread-safe, so a coordinator may fan out
/// Plan/Search over a thread pool while /v1/stats reads HealthJson().
class ShardClient {
 public:
  ShardClient(size_t shard, std::string host, uint16_t port)
      : shard_(shard),
        host_(std::move(host)),
        port_(port),
        http_(host_, port_) {}

  /// Phase 1: fetch this shard's collection statistics for `query`.
  /// `deadline_seconds` (0 = none) bounds the whole call on the wire.
  Result<ShardPlanRpcResponse> Plan(const ShardQuery& query,
                                    double deadline_seconds) const;

  /// Phase 2: retrieve candidates scored with the collection statistics.
  /// A shard whose epoch moved past `expected_epoch` answers 409, which
  /// surfaces here as FailedPrecondition — re-plan and retry.
  Result<ShardSearchRpcResponse> Search(const ShardQuery& query,
                                        const ShardGlobalStats& global,
                                        uint64_t expected_epoch,
                                        double deadline_seconds) const;

  size_t shard() const { return shard_; }
  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }
  std::string address() const;

  /// Last-known state as a /v1/stats block:
  ///   {"shard", "address", "healthy", "epoch", "connection_reuses",
  ///    "connection_reconnects", "last_error"?}
  /// "healthy" reflects the most recent call (true after any success,
  /// false after any failure or before the first call completes).
  json::Value HealthJson() const;

  /// The underlying keep-alive client (reuse / reconnect counters).
  const HttpClient& http() const { return http_; }

 private:
  /// POST `body` to `path`, map non-200 answers back to their Status, and
  /// record health on the way out.
  Result<json::Value> Call(const char* path, const json::Value& body,
                           double deadline_seconds) const;

  const size_t shard_;
  const std::string host_;
  const uint16_t port_;
  mutable HttpClient http_;

  mutable std::mutex mu_;
  mutable bool healthy_ = false;
  mutable uint64_t epoch_ = 0;
  mutable std::string last_error_;
};

/// \brief A shard server as a scatter-gather backend: the client's RPCs,
/// each bounded by the request's remaining budget tightened to at most
/// `max_rpc_seconds` (0 = no per-RPC cap). Health stays on the client.
class ShardClientBackend final : public ShardBackend {
 public:
  ShardClientBackend(const ShardClient* client, double max_rpc_seconds)
      : client_(client), max_rpc_seconds_(max_rpc_seconds) {}

  Result<ShardPlan> Plan(const ShardQuery& query,
                         double budget_seconds) const override;
  Result<ShardSearchResult> Search(const ShardQuery& query,
                                   const ShardGlobalStats& global,
                                   uint64_t expected_epoch,
                                   double budget_seconds) const override;

 private:
  /// The RPC deadline for a call with `budget_seconds` left (0 = none).
  double RpcDeadline(double budget_seconds) const;

  const ShardClient* client_;
  double max_rpc_seconds_;
};

}  // namespace net
}  // namespace newslink

#endif  // NEWSLINK_NET_SHARD_CLIENT_H_
