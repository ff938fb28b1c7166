// The scatter-gather core against scripted ShardBackends: the paths an
// in-process backend never takes — a moved epoch (re-plan), a failing
// partition (degraded merge), and a spent request deadline — exercised
// without sockets. The bit-exact merge itself is covered by the sharded,
// tiered, and coordinator suites, which run the same core.

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "kg/label_index.h"
#include "kg/synthetic_kg.h"
#include "newslink/newslink_engine.h"
#include "newslink/scatter_gather.h"

namespace newslink {
namespace {

/// A partition that answers from a script: call i of each method gets
/// script[i] (the last entry repeats); an OK entry answers. Answers
/// carry one candidate per call, on local row 10 * call, so a hit tells
/// which call produced it.
class ScriptedBackend : public ShardBackend {
 public:
  std::vector<Status> plan_script = {Status::OK()};
  std::vector<Status> search_script = {Status::OK()};
  mutable std::atomic<int> plans{0};
  mutable std::atomic<int> searches{0};

  Result<ShardPlan> Plan(const ShardQuery&,
                         double budget_seconds) const override {
    const int call = plans.fetch_add(1);
    Record(budget_seconds);
    NL_RETURN_IF_ERROR(Pick(plan_script, call));
    ShardPlan plan;
    plan.epoch = static_cast<uint64_t>(call);
    plan.num_docs = 100;
    return plan;
  }

  Result<ShardSearchResult> Search(const ShardQuery&, const ShardGlobalStats&,
                                   uint64_t expected_epoch,
                                   double budget_seconds) const override {
    const int call = searches.fetch_add(1);
    Record(budget_seconds);
    NL_RETURN_IF_ERROR(Pick(search_script, call));
    ShardSearchResult result;
    result.epoch = expected_epoch;
    result.snapshot_docs = 100;
    result.bow_max = 1.0;
    result.candidates = {{static_cast<uint32_t>(10 * call), 1.0, 0.0, 0}};
    return result;
  }

  std::vector<double> budgets() const {
    std::lock_guard<std::mutex> lock(mu_);
    return budgets_;
  }

 private:
  static Status Pick(const std::vector<Status>& script, int call) {
    return script[std::min<size_t>(call, script.size() - 1)];
  }
  void Record(double budget_seconds) const {
    std::lock_guard<std::mutex> lock(mu_);
    budgets_.push_back(budget_seconds);
  }

  mutable std::mutex mu_;
  mutable std::vector<double> budgets_;
};

class ScatterGatherTest : public ::testing::Test {
 protected:
  ScatterGatherTest()
      : kg_(MakeKg()),
        labels_(kg_.graph),
        prep_(&kg_.graph, &labels_, NewsLinkConfig{}),
        pool_(2),
        core_(&pool_, &registry_, nullptr) {}

  static kg::SyntheticKg MakeKg() {
    kg::SyntheticKgConfig config;
    config.seed = 5;
    config.num_countries = 1;
    return kg::SyntheticKgGenerator(config).Generate();
  }

  /// Two partitions, shard0 / shard1, rows interleaved (l * 2 + s).
  ScatterTargets Targets() const {
    ScatterTargets targets;
    targets.prep = &prep_;
    targets.partitions = {{&a_, "shard0"}, {&b_, "shard1"}};
    targets.to_global = [](size_t s, uint32_t local) {
      return static_cast<uint32_t>(2 * local + s);
    };
    return targets;
  }

  static baselines::SearchRequest Request() {
    baselines::SearchRequest request;
    request.query = "flood rescue in the capital";
    request.k = 5;
    request.beta = 0.0;
    return request;
  }

  uint64_t Counter(std::string_view name) const {
    return registry_.CounterValue(name);
  }

  kg::SyntheticKg kg_;
  kg::LabelIndex labels_;
  NewsLinkEngine prep_;
  metrics::Registry registry_;
  ThreadPool pool_;
  ScatterGather core_;
  ScriptedBackend a_;
  ScriptedBackend b_;
};

TEST_F(ScatterGatherTest, MovedEpochReplansOnceAndDropsRoundZero) {
  // Round 0: a answers, b's epoch moved. Round 1: a's plan fails, b
  // answers. a's round-0 candidate was scored against the stale merge and
  // must not reach the response.
  a_.plan_script = {Status::OK(), Status::IOError("shard went away")};
  b_.search_script = {Status::FailedPrecondition("epoch moved"),
                      Status::OK()};
  const baselines::SearchResponse response =
      core_.Search(Request(), Targets());

  EXPECT_EQ(a_.plans.load(), 2);
  EXPECT_EQ(b_.plans.load(), 2);
  EXPECT_EQ(a_.searches.load(), 1);
  EXPECT_EQ(b_.searches.load(), 2);
  ASSERT_EQ(response.hits.size(), 1u);
  EXPECT_EQ(response.hits[0].doc_index, 2u * 10u + 1u)
      << "only b's round-1 candidate (local row 10) may survive";
  EXPECT_EQ(response.shards_answered, 1u);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.epoch, 1u) << "b's round-1 plan epoch";

  // A partition whose epoch keeps moving gets one re-plan, not a loop.
  a_.plans = 0;
  a_.searches = 0;
  a_.plan_script = {Status::OK()};
  b_.plans = 0;
  b_.searches = 0;
  b_.search_script = {Status::FailedPrecondition("epoch moved")};
  const baselines::SearchResponse again = core_.Search(Request(), Targets());
  EXPECT_EQ(b_.plans.load(), 2);
  EXPECT_EQ(b_.searches.load(), 2);
  EXPECT_EQ(again.shards_answered, 1u);
  ASSERT_EQ(again.hits.size(), 1u);
  EXPECT_EQ(again.hits[0].doc_index % 2, 0u) << "a's answer only";
}

TEST_F(ScatterGatherTest, FailingBackendGivesDegradedMergeOverTheRest) {
  a_.plan_script = {Status::IOError("connection refused")};
  baselines::SearchRequest request = Request();
  request.deadline_seconds = 30.0;
  const baselines::SearchResponse response = core_.Search(request, Targets());

  EXPECT_EQ(a_.searches.load(), 0)
      << "an unplanned partition is not searched";
  EXPECT_EQ(response.shards_total, 2u);
  EXPECT_EQ(response.shards_answered, 1u);
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.deadline_exceeded);
  ASSERT_EQ(response.hits.size(), 1u);
  EXPECT_EQ(response.hits[0].doc_index, 1u) << "b's local row 0";
  EXPECT_EQ(response.snapshot_docs, 100u) << "the answering partition only";
  EXPECT_EQ(Counter(kCoordinatorDegraded), 1u);
  EXPECT_EQ(Counter(kCoordinatorShardErrors), 1u);

  // Every call got what was left of the request deadline.
  for (const double budget : b_.budgets()) {
    EXPECT_GT(budget, 0.0);
    EXPECT_LE(budget, 30.0);
  }

  // A healthy round is not counted as degraded; without a request
  // deadline the budget is 0 (none).
  a_.plan_script = {Status::OK()};
  const baselines::SearchResponse healthy =
      core_.Search(Request(), Targets());
  EXPECT_EQ(healthy.shards_answered, 2u);
  EXPECT_FALSE(healthy.degraded);
  EXPECT_EQ(Counter(kCoordinatorDegraded), 1u);
  EXPECT_EQ(a_.budgets().back(), 0.0);
}

TEST_F(ScatterGatherTest, SpentDeadlineCallsNoBackend) {
  baselines::SearchRequest request = Request();
  request.beta = 0.3;
  request.trace = true;
  request.deadline_seconds = 1e-9;
  const baselines::SearchResponse response = core_.Search(request, Targets());

  EXPECT_EQ(a_.plans.load() + b_.plans.load(), 0);
  EXPECT_EQ(a_.searches.load() + b_.searches.load(), 0);
  EXPECT_TRUE(response.deadline_exceeded);
  EXPECT_TRUE(response.hits.empty());
  EXPECT_EQ(response.shards_answered, 0u);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(Counter(kCoordinatorShardErrors), 2u);

  // The query's NE stage is skipped too, as on a single engine.
  const TraceSpan* ne = response.trace.Find("ne");
  ASSERT_NE(ne, nullptr);
  bool skipped = false;
  for (const auto& [key, value] : ne->notes) {
    skipped = skipped || (key == "skipped" && value == "deadline");
  }
  EXPECT_TRUE(skipped);
  const TraceSpan* shard1 = response.trace.Find("shard1");
  ASSERT_NE(shard1, nullptr);
  ASSERT_FALSE(shard1->notes.empty());
  EXPECT_EQ(shard1->notes[0].first, "error");
}

}  // namespace
}  // namespace newslink
