// The one scatter-gather loop of the shard protocol (DESIGN.md Sec. 12.2),
// shared by ShardedEngine (N shards), TieredEngine (base + today tier) and
// the HTTP coordinator (N shard servers): NLP + NE once, PLAN every
// partition, merge the plans, SEARCH with the collection-wide statistics,
// re-plan once on a moved epoch, and fuse with MergeShardCandidates.

#ifndef NEWSLINK_NEWSLINK_SCATTER_GATHER_H_
#define NEWSLINK_NEWSLINK_SCATTER_GATHER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/search_engine.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "embed/path_explainer.h"
#include "newslink/newslink_engine.h"
#include "newslink/shard_api.h"

namespace newslink {

/// Series the core registers on the registry it is given.
inline constexpr std::string_view kCoordinatorDegraded =
    "coordinator_degraded_responses_total";
inline constexpr std::string_view kCoordinatorShardErrors =
    "coordinator_shard_rpc_errors_total";

/// \brief One partition of a collection. Calls may run concurrently.
/// `budget_seconds` is what is left of the request's deadline (0 = no
/// deadline); the core never calls a backend whose budget is spent.
class ShardBackend {
 public:
  ShardBackend() = default;
  ShardBackend(const ShardBackend&) = default;
  ShardBackend& operator=(const ShardBackend&) = default;
  virtual ~ShardBackend() = default;

  /// Phase 1: the partition's collection statistics for `query`, from one
  /// epoch (reported in the plan).
  virtual Result<ShardPlan> Plan(const ShardQuery& query,
                                 double budget_seconds) const = 0;

  /// Phase 2: candidates scored with the collection-wide statistics.
  /// FailedPrecondition when the partition's epoch moved past
  /// `expected_epoch` since its plan — the core then re-plans.
  virtual Result<ShardSearchResult> Search(const ShardQuery& query,
                                           const ShardGlobalStats& global,
                                           uint64_t expected_epoch,
                                           double budget_seconds) const = 0;
};

/// \brief In-process backend: one engine read through one pinned epoch.
/// It never fails (the pin keeps the epoch still) and ignores the budget
/// (an in-process call cannot be cut short).
class EngineShardBackend final : public ShardBackend {
 public:
  EngineShardBackend(const NewsLinkEngine* engine, ShardEpochPin pin)
      : engine_(engine), pin_(std::move(pin)) {}

  Result<ShardPlan> Plan(const ShardQuery& query,
                         double budget_seconds) const override;
  Result<ShardSearchResult> Search(const ShardQuery& query,
                                   const ShardGlobalStats& global,
                                   uint64_t expected_epoch,
                                   double budget_seconds) const override;

 private:
  const NewsLinkEngine* engine_;
  ShardEpochPin pin_;
};

/// What one scatter-gather query runs over.
struct ScatterTargets {
  /// Runs NLP + NE on the query and prepares the shard query; any engine
  /// holding the shared knowledge graph and config (it needs no corpus).
  const NewsLinkEngine* prep = nullptr;

  struct Partition {
    const ShardBackend* backend = nullptr;
    /// Name of the partition's span under "ns" ("shard0", "base", ...).
    std::string span_name;
  };
  std::vector<Partition> partitions;

  /// Partition index + partition-local corpus row → collection row.
  std::function<uint32_t(size_t, uint32_t)> to_global;

  /// Added to the sum of the answering partitions' epochs (a tiered
  /// engine folds its retired tiers' epochs in here).
  uint64_t epoch_offset = 0;

  /// Collection row → document embedding, for `explain`. Empty when the
  /// document embeddings are out of reach (the HTTP coordinator); explain
  /// is then not run.
  std::function<const embed::DocumentEmbedding&(uint32_t)> doc_embedding;
};

class ScatterGather {
 public:
  /// `pool` fans the PLAN / SEARCH calls out; `registry` receives the
  /// engine query series and the coordinator_* series; `explainer` serves
  /// `explain` (null where ScatterTargets::doc_embedding is never set).
  /// All three must outlive the core.
  ScatterGather(ThreadPool* pool, metrics::Registry* registry,
                const embed::PathExplainer* explainer);

  baselines::SearchResponse Search(const baselines::SearchRequest& request,
                                   const ScatterTargets& targets) const;

 private:
  ThreadPool* pool_;
  const embed::PathExplainer* explainer_;
  metrics::Counter* queries_;
  metrics::Histogram* query_seconds_;
  metrics::Counter* degraded_;
  metrics::Counter* backend_errors_;
};

}  // namespace newslink

#endif  // NEWSLINK_NEWSLINK_SCATTER_GATHER_H_
