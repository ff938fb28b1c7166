#include "newslink/scatter_gather.h"

#include <atomic>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "common/trace.h"
#include "newslink/shard_merge.h"

namespace newslink {

Result<ShardPlan> EngineShardBackend::Plan(const ShardQuery& query,
                                           double) const {
  return engine_->PlanShard(query, pin_);
}

Result<ShardSearchResult> EngineShardBackend::Search(
    const ShardQuery& query, const ShardGlobalStats& global, uint64_t,
    double) const {
  return engine_->SearchShard(query, global, pin_);
}

ScatterGather::ScatterGather(ThreadPool* pool, metrics::Registry* registry,
                             const embed::PathExplainer* explainer)
    : pool_(pool),
      explainer_(explainer),
      queries_(registry->GetCounter(baselines::kEngineQueries)),
      query_seconds_(registry->GetHistogram(baselines::kEngineQuerySeconds)),
      degraded_(registry->GetCounter(
          kCoordinatorDegraded, "responses merged over a partial shard set")),
      backend_errors_(registry->GetCounter(
          kCoordinatorShardErrors, "shard calls that failed or timed out")) {}

baselines::SearchResponse ScatterGather::Search(
    const baselines::SearchRequest& request,
    const ScatterTargets& targets) const {
  const NewsLinkEngine& prep = *targets.prep;
  const size_t n = targets.partitions.size();
  const double beta = request.beta.value_or(prep.beta());
  const bool explain = request.explain && targets.doc_embedding != nullptr;

  Trace query_trace;
  // Deadline clock, and the anchor for the partition spans spliced in
  // below (a Trace is single-threaded; partitions are timed in workers).
  WallTimer timer;
  const size_t root_handle = query_trace.Begin("search");
  const double deadline = request.deadline_seconds.value_or(0.0);
  // What is left of the request deadline: 0 = no deadline, < 0 = spent.
  const auto budget = [&timer, deadline]() {
    if (deadline <= 0.0) return 0.0;
    const double left = deadline - timer.ElapsedSeconds();
    return left > 0.0 ? left : -1.0;
  };

  baselines::SearchResponse response;
  response.shards_total = n;

  // --- NLP + NE on the query: once, for every partition -----------------
  embed::DocumentEmbedding query_embedding;
  {
    ScopedSpan span(&query_trace, "nlp");
    const text::SegmentedDocument segmented = prep.SegmentText(request.query);
    query_trace.Note("segments", std::to_string(segmented.segments.size()));
  }
  {
    ScopedSpan span(&query_trace, "ne");
    if ((beta > 0.0 || explain) && budget() < 0.0) {
      response.deadline_exceeded = true;
      query_trace.Note("skipped", "deadline");
    } else if (beta > 0.0 || explain) {
      query_embedding = prep.EmbedText(request.query);
    } else {
      query_trace.Note("skipped", "beta=0");
    }
  }

  // --- NS: two-phase scatter-gather (shard_api.h) ------------------------
  std::vector<std::optional<ShardSearchResult>> results(n);
  std::vector<Status> errors(n);
  std::vector<double> start(n, 0.0);
  std::vector<double> seconds(n, 0.0);
  {
    ScopedSpan span(&query_trace, "ns");
    const ShardQuery query = prep.PrepareShardQuery(request, query_embedding);
    const Status spent = Status::Timeout("request deadline exhausted");

    ShardGlobalStats global;
    // A partition whose epoch moves between PLAN and SEARCH answers
    // FailedPrecondition; the whole round restarts once, because its new
    // statistics change the collection-wide view every other partition
    // scored with.
    for (int round = 0; round < 2; ++round) {
      std::vector<std::optional<ShardPlan>> plans(n);
      pool_->ParallelFor(n, [&](size_t s) {
        const double left = budget();
        if (left < 0.0) {
          errors[s] = spent;
          return;
        }
        Result<ShardPlan> plan =
            targets.partitions[s].backend->Plan(query, left);
        errors[s] = plan.status();
        if (plan.ok()) plans[s] = std::move(plan).value();
      });

      global = ShardGlobalStats();
      bool planned = false;
      for (const std::optional<ShardPlan>& plan : plans) {
        if (!plan.has_value()) continue;
        MergeShardPlan(*plan, &global);
        planned = true;
      }
      if (!planned) break;

      std::atomic<bool> epoch_moved{false};
      pool_->ParallelFor(n, [&](size_t s) {
        if (!plans[s].has_value()) return;
        const double left = budget();
        if (left < 0.0) {
          errors[s] = spent;
          return;
        }
        start[s] = timer.ElapsedSeconds();
        WallTimer call_timer;
        Result<ShardSearchResult> result =
            targets.partitions[s].backend->Search(query, global,
                                                  plans[s]->epoch, left);
        seconds[s] = call_timer.ElapsedSeconds();
        errors[s] = result.status();
        if (result.ok()) {
          results[s] = std::move(result).value();
        } else if (result.status().IsFailedPrecondition()) {
          epoch_moved.store(true, std::memory_order_relaxed);
        }
      });
      if (!epoch_moved.load(std::memory_order_relaxed)) break;
      // Results scored against the stale merge must not mix with the
      // retry's: drop them all and re-plan at the new epochs.
      if (round == 0) results.assign(n, std::nullopt);
    }

    ShardFuseParams fuse;
    fuse.beta = beta;
    fuse.use_bow = query.use_bow;
    fuse.use_bon = query.use_bon;
    fuse.k = request.k;
    fuse.kprime = query.exhaustive ? 0 : query.kprime;
    fuse.recency_half_life_s = query.recency_half_life_s;
    fuse.now_ms = query.now_ms;
    fuse.has_timestamps = global.has_timestamps;
    std::vector<const ShardSearchResult*> answers(n, nullptr);
    uint64_t bow_scored = 0;
    uint64_t bon_scored = 0;
    for (size_t s = 0; s < n; ++s) {
      if (!results[s].has_value()) continue;
      answers[s] = &*results[s];
      ++response.shards_answered;
      response.epoch += results[s]->epoch;
      response.snapshot_docs += results[s]->snapshot_docs;
      bow_scored += results[s]->bow_scored;
      bon_scored += results[s]->bon_scored;
    }
    for (const ir::ScoredDoc& scored :
         MergeShardCandidates(fuse, answers, targets.to_global)) {
      baselines::SearchHit hit;
      hit.doc_index = scored.doc;
      hit.score = scored.score;
      response.hits.push_back(std::move(hit));
    }
    query_trace.Note("shards", std::to_string(n));
    query_trace.Note("bow_scored", std::to_string(bow_scored));
    query_trace.Note("bon_scored", std::to_string(bon_scored));
  }
  response.epoch += targets.epoch_offset;
  response.degraded = response.shards_answered < n;
  if (response.degraded) degraded_->Inc();
  for (const Status& error : errors) {
    if (error.ok()) continue;
    backend_errors_->Inc();
    if (error.IsTimeout()) response.deadline_exceeded = true;
  }

  // --- Explanations over collection rows ---------------------------------
  if (explain && budget() < 0.0) {
    response.deadline_exceeded = true;
    query_trace.Note("explain_skipped", "deadline");
  } else if (explain) {
    NL_CHECK(explainer_ != nullptr) << "explain needs a PathExplainer";
    ScopedSpan span(&query_trace, "explain");
    for (baselines::SearchHit& hit : response.hits) {
      hit.paths = explainer_->Explain(query_embedding,
                                      targets.doc_embedding(hit.doc_index),
                                      request.max_paths_per_result);
    }
  }

  if (response.deadline_exceeded) {
    query_trace.Note("deadline_exceeded", "true");
  }
  query_trace.End(root_handle);
  TraceSpan root = query_trace.Finish();

  // One span child per partition under "ns", timed in the workers above.
  // SpanBreakdown only reads the root's direct children, so the
  // nlp/ne/ns/explain buckets are unaffected.
  for (TraceSpan& child : root.children) {
    if (child.name != "ns") continue;
    for (size_t s = 0; s < n; ++s) {
      TraceSpan partition_span;
      partition_span.name = targets.partitions[s].span_name;
      partition_span.start_seconds = start[s];
      partition_span.duration_seconds = seconds[s];
      if (results[s].has_value()) {
        partition_span.notes.push_back(
            {"epoch", std::to_string(results[s]->epoch)});
        partition_span.notes.push_back(
            {"candidates", std::to_string(results[s]->candidates.size())});
      } else {
        partition_span.notes.push_back({"error", errors[s].ToString()});
      }
      child.children.push_back(std::move(partition_span));
    }
    break;
  }

  queries_->Inc();
  query_seconds_->Observe(root.duration_seconds);
  response.timings = SpanBreakdown(root);
  if (request.trace) response.trace = std::move(root);
  return response;
}

}  // namespace newslink
