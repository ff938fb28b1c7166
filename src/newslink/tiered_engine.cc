#include "newslink/tiered_engine.h"

#include <chrono>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace newslink {

namespace {

/// Approximate heap footprint of one document's raw content — the input
/// the today-tier byte gauge tracks (index structures amplify it, but the
/// raw size is stable across index configs and good enough to alarm on).
size_t DocumentBytes(const corpus::Document& doc) {
  return doc.id.size() + doc.title.size() + doc.text.size();
}

}  // namespace

TieredEngine::TieredEngine(const kg::KnowledgeGraph* graph,
                           const kg::LabelIndex* label_index,
                           NewsLinkConfig config, TieredOptions options)
    : graph_(graph),
      label_index_(label_index),
      config_(config),
      options_(options),
      explainer_(graph),
      pool_(options_.fanout_threads != 0 ? options_.fanout_threads : 2),
      scatter_gather_(&pool_, registry(), &explainer_),
      compactions_(registry()->GetCounter(
          kTierCompactions, "today-tier merges into the base tier")),
      compaction_failures_(registry()->GetCounter(
          kTierCompactionFailures, "compaction rebuilds that failed")),
      today_docs_gauge_(registry()->GetGauge(
          kTodayTierDocs, "documents in the live today tier")),
      today_bytes_gauge_(registry()->GetGauge(
          kTodayTierBytes, "raw content bytes in the live today tier")) {
  auto tiers = std::make_shared<Tiers>();
  tiers->base = std::make_shared<NewsLinkEngine>(graph, label_index, config);
  tiers->today = std::make_shared<NewsLinkEngine>(graph, label_index, config);
  {
    std::lock_guard<std::mutex> lock(tiers_mu_);
    tiers_ = std::move(tiers);
  }
  if (options_.compact_interval_seconds > 0.0) {
    compactor_ = std::thread([this] { CompactorLoop(); });
  }
}

TieredEngine::~TieredEngine() {
  if (compactor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(compactor_mu_);
      stop_compactor_ = true;
    }
    compactor_cv_.notify_all();
    compactor_.join();
  }
}

std::string TieredEngine::name() const {
  return StrCat("Tiered[", AcquireTiers()->base->name(), "]");
}

std::shared_ptr<const TieredEngine::Tiers> TieredEngine::AcquireTiers()
    const {
  std::lock_guard<std::mutex> lock(tiers_mu_);
  return tiers_;
}

size_t TieredEngine::today_tier_docs() const {
  return AcquireTiers()->today->num_indexed_docs();
}

uint64_t TieredEngine::compactions() const { return compactions_->Value(); }

Status TieredEngine::Index(const corpus::Corpus& corpus) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (!docs_.empty()) {
    return Status::FailedPrecondition(
        "Index requires an empty engine; use AddDocument for live ingestion");
  }
  // Build the base tier first: a failed build leaves the engine untouched
  // (the ctor-created base engine only mutates after its own validation).
  const std::shared_ptr<const Tiers> tiers = AcquireTiers();
  NL_RETURN_IF_ERROR(tiers->base->Index(corpus));

  uint64_t fp = corpus_fingerprint_.load(std::memory_order_relaxed);
  for (size_t row = 0; row < corpus.size(); ++row) {
    docs_.Add(corpus.doc(row));
    fp = corpus::ChainCorpusFingerprint(fp, corpus.doc(row));
  }
  corpus_fingerprint_.store(fp, std::memory_order_release);
  num_docs_.store(docs_.size(), std::memory_order_release);
  return Status::OK();
}

size_t TieredEngine::AddDocument(const corpus::Document& doc) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  const std::shared_ptr<const Tiers> tiers = AcquireTiers();
  // Global rows are ingestion order: the new document's row is everything
  // ingested so far, independent of the current tier split (compaction
  // preserves the order, so the row stays valid for the engine's life).
  const size_t global = docs_.size();
  tiers->today->AddDocument(doc);
  docs_.Add(doc);
  corpus_fingerprint_.store(
      corpus::ChainCorpusFingerprint(
          corpus_fingerprint_.load(std::memory_order_relaxed), doc),
      std::memory_order_release);
  num_docs_.store(docs_.size(), std::memory_order_release);
  today_bytes_ += DocumentBytes(doc);
  today_docs_gauge_->Set(
      static_cast<double>(tiers->today->num_indexed_docs()));
  today_bytes_gauge_->Set(static_cast<double>(today_bytes_));
  return global;
}

Status TieredEngine::Compact() {
  // Writers stall for the whole rebuild (the documented trade-off);
  // queries keep running on the pre-compaction tiers via their pins.
  std::lock_guard<std::mutex> writer(writer_mu_);
  const std::shared_ptr<const Tiers> tiers = AcquireTiers();
  if (tiers->today->num_indexed_docs() == 0) return Status::OK();

  // Reuse every embedding both tiers already computed — concatenated in
  // global row order (base rows first), exactly matching docs_ — so the
  // rebuild is pure NS-component work (tokenize + index), no NLP/NE.
  std::vector<embed::DocumentEmbedding> embeddings =
      tiers->base->SnapshotEmbeddings();
  std::vector<embed::DocumentEmbedding> today =
      tiers->today->SnapshotEmbeddings();
  embeddings.insert(embeddings.end(),
                    std::make_move_iterator(today.begin()),
                    std::make_move_iterator(today.end()));
  NL_CHECK(embeddings.size() == docs_.size())
      << "tier embeddings cover " << embeddings.size() << " of "
      << docs_.size() << " documents";

  auto base =
      std::make_shared<NewsLinkEngine>(graph_, label_index_, config_);
  const Status built = base->IndexWithEmbeddings(docs_, std::move(embeddings));
  if (!built.ok()) {
    compaction_failures_->Inc();
    return built;
  }

  auto next = std::make_shared<Tiers>();
  next->base = std::move(base);
  next->today =
      std::make_shared<NewsLinkEngine>(graph_, label_index_, config_);
  // Fold the retiring pair's epochs into the offset so response.epoch
  // keeps growing across the swap (the fresh engines restart at zero).
  next->epoch_base = tiers->epoch_base + tiers->base->PinEpoch().epoch() +
                     tiers->today->PinEpoch().epoch();
  {
    std::lock_guard<std::mutex> lock(tiers_mu_);
    tiers_ = std::move(next);
  }
  today_bytes_ = 0;
  today_docs_gauge_->Set(0.0);
  today_bytes_gauge_->Set(0.0);
  compactions_->Inc();
  return Status::OK();
}

void TieredEngine::CompactorLoop() {
  const auto interval = std::chrono::duration<double>(
      options_.compact_interval_seconds);
  std::unique_lock<std::mutex> lock(compactor_mu_);
  while (!stop_compactor_) {
    compactor_cv_.wait_for(lock, interval,
                           [this] { return stop_compactor_; });
    if (stop_compactor_) break;
    if (AcquireTiers()->today->num_indexed_docs() <
        options_.compact_min_today_docs) {
      continue;
    }
    lock.unlock();
    // Failures are counted (tier_compaction_failures_total) and retried
    // next tick; the engine keeps serving from the uncompacted pair.
    (void)Compact();
    lock.lock();
  }
}

baselines::SearchResponse TieredEngine::Search(
    const baselines::SearchRequest& request) const {
  const std::shared_ptr<const Tiers> tiers = AcquireTiers();
  return SearchWithPins(request, *tiers, tiers->base->PinEpoch(),
                        tiers->today->PinEpoch());
}

std::vector<baselines::SearchResponse> TieredEngine::SearchBatch(
    std::span<const baselines::SearchRequest> requests) const {
  // One tier acquisition + one pin per tier for the WHOLE batch: every
  // response answers from the same corpus view, even across a concurrent
  // compaction swap or ingest burst.
  const std::shared_ptr<const Tiers> tiers = AcquireTiers();
  const ShardEpochPin base_pin = tiers->base->PinEpoch();
  const ShardEpochPin today_pin = tiers->today->PinEpoch();
  std::vector<baselines::SearchResponse> responses(requests.size());
  pool_.ParallelFor(requests.size(), [&](size_t i) {
    responses[i] = SearchWithPins(requests[i], *tiers, base_pin, today_pin);
  });
  return responses;
}

baselines::SearchResponse TieredEngine::SearchWithPins(
    const baselines::SearchRequest& request, const Tiers& tiers,
    const ShardEpochPin& base_pin, const ShardEpochPin& today_pin) const {
  // The tier split this query sees: base rows are global rows
  // [0, base_docs), today-local row j is global row base_docs + j. The
  // base tier is immutable between compactions, so the pinned count IS
  // the split point.
  const uint32_t base_docs = static_cast<uint32_t>(base_pin.num_docs());
  const EngineShardBackend base(tiers.base.get(), base_pin);
  const EngineShardBackend today(tiers.today.get(), today_pin);
  ScatterTargets targets;
  targets.prep = tiers.base.get();
  targets.partitions = {{&base, "base"}, {&today, "today"}};
  targets.to_global = [base_docs](size_t s, uint32_t local) {
    return s == 0 ? local : base_docs + local;
  };
  targets.epoch_offset = tiers.epoch_base;
  targets.doc_embedding =
      [&tiers, base_docs](uint32_t row) -> const embed::DocumentEmbedding& {
    return row < base_docs ? tiers.base->doc_embedding(row)
                           : tiers.today->doc_embedding(row - base_docs);
  };
  return scatter_gather_.Search(request, targets);
}

}  // namespace newslink
