#include "ir/max_score.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "ir/top_k.h"

namespace newslink {
namespace ir {

namespace {

// A document's score is summed in query-term order, never in the order the
// traversal happens to meet its terms (that order depends on the heap
// threshold, so it differs between an index and a shard of it). The partial
// sums the pruning tests add up may then differ from the pushed score in
// the last bits, so every bound is inflated by this relative slack before
// it meets the threshold. It is far above the rounding error of a sum of a
// few thousand terms; a looser bound only means scoring a few more docs.
constexpr double kBoundSlack = 1.0 + 1e-9;

}  // namespace

double MaxScoreRetriever::Score(uint32_t qtf, double idf,
                                const Posting& posting, double avgdl) const {
  const double dl = static_cast<double>(index_->DocLength(posting.doc));
  const double norm =
      params_.k1 *
      (1.0 - params_.b + params_.b * (avgdl > 0 ? dl / avgdl : 0.0));
  const double tf = static_cast<double>(posting.tf);
  return qtf * idf * tf * (params_.k1 + 1.0) / (tf + norm);
}

double MaxScoreRetriever::TfBound(uint32_t max_tf, double norm_min) const {
  // tf * (k1+1) / (tf + c) is nondecreasing in tf for c >= 0, so plugging
  // a lower bound on the norm and the maximum tf bounds every posting from
  // above.
  const double tf = static_cast<double>(max_tf);
  return tf * (params_.k1 + 1.0) / (tf + norm_min);
}

std::vector<ScoredDoc> MaxScoreRetriever::TopK(
    const TermCounts& query, size_t k, const IndexSnapshot& snapshot,
    size_t* docs_scored, size_t* blocks_skipped,
    const CollectionStats* collection, const DocFilter* filter) const {
  size_t scored = 0;
  size_t skipped_blocks = 0;
  const double avgdl =
      collection ? collection->avg_doc_length() : snapshot.avg_doc_length();
  const double num_docs = static_cast<double>(
      collection ? collection->num_docs : snapshot.num_docs);
  // Smallest norm any scored doc can have: norm is increasing in dl, the
  // live MinDocLength() only ever decreases, and Score() uses this same
  // snapshot avgdl — so this floor is valid even under concurrent append.
  // A collection-wide minimum (shard serving) is <= the local one: bounds
  // merely loosen.
  const double min_dl = static_cast<double>(
      collection ? collection->min_doc_length : index_->MinDocLength());
  const double norm_min = std::max(
      0.0, params_.k1 * (1.0 - params_.b +
                         params_.b * (avgdl > 0 ? min_dl / avgdl : 0.0)));
  struct Term {
    PostingView postings;
    TermBlockMax blocks;
    double idf;
    uint32_t qtf;
    double bound;  // maximum possible contribution of this term
    size_t query_pos;
  };
  std::vector<Term> terms;
  for (size_t i = 0; i < query.size(); ++i) {
    const auto& [term, qtf] = query[i];
    const PostingView postings = index_->Postings(term, snapshot);
    if (postings.empty()) continue;
    const double idf =
        collection
            ? Bm25Scorer::IdfValue(num_docs,
                                   static_cast<double>(collection->df[i]))
            : scorer_.Idf(term, snapshot);
    // tf * (k1+1) / (tf + norm) < (k1 + 1) for norm > 0; == at norm == 0.
    double bound = qtf * idf * (params_.k1 + 1.0);
    TermBlockMax blocks;
    if (options_.use_block_max) {
      blocks = index_->BlockMax(term);
      // Tighter: the term's max tf caps every posting (the live max is a
      // superset max, hence still valid for this snapshot's prefix). With
      // collection stats the cap is the collection-wide maximum, >= any
      // local tf — looser but keeps the bound ordering identical to a
      // single index over the union.
      const uint32_t tf_cap =
          collection ? collection->max_tf[i] : blocks.max_tf;
      if (tf_cap > 0) {
        bound = qtf * idf * TfBound(tf_cap, norm_min);
      }
    }
    terms.push_back(Term{postings, blocks, idf, qtf, bound, i});
  }
  auto finish = [&](std::vector<ScoredDoc> result) {
    last_docs_scored_.store(scored, std::memory_order_relaxed);
    last_blocks_skipped_.store(skipped_blocks, std::memory_order_relaxed);
    if (docs_scored != nullptr) *docs_scored = scored;
    if (blocks_skipped != nullptr) *blocks_skipped = skipped_blocks;
    if (calls_ != nullptr) {
      calls_->Inc();
      docs_scored_counter_->Inc(scored);
      blocks_skipped_counter_->Inc(skipped_blocks);
    }
    return result;
  };
  if (terms.empty() || k == 0) return finish({});

  // Ascending by bound: terms[0..e) become non-essential as the threshold
  // grows.
  std::stable_sort(terms.begin(), terms.end(),
                   [](const Term& a, const Term& b) {
                     return a.bound < b.bound;
                   });
  std::vector<double> prefix(terms.size() + 1, 0.0);
  for (size_t i = 0; i < terms.size(); ++i) {
    prefix[i + 1] = prefix[i] + terms[i].bound;
  }

  TopKHeap heap(k);
  std::vector<size_t> cursor(terms.size(), 0);
  // The current doc's (query position, contribution) pairs.
  std::vector<std::pair<size_t, double>> parts;
  size_t first_essential = 0;

  auto advance_essential_split = [&]() {
    // terms[0..first_essential) cannot alone lift a doc over the threshold.
    // Strict comparison: exact ties must still be scored, because a tying
    // doc with a smaller id displaces the heap's worst entry.
    const double threshold = heap.Threshold();
    while (first_essential < terms.size() &&
           prefix[first_essential + 1] * kBoundSlack < threshold) {
      ++first_essential;
    }
  };

  while (true) {
    advance_essential_split();
    if (first_essential >= terms.size()) break;  // nothing can qualify

    // Next candidate: smallest doc id among essential cursors.
    DocId next = kInvalidDoc;
    for (size_t t = first_essential; t < terms.size(); ++t) {
      if (cursor[t] < terms[t].postings.size()) {
        next = std::min(next, terms[t].postings[cursor[t]].doc);
      }
    }
    if (next == kInvalidDoc) break;

    // Filter pushdown: a rejected candidate is dropped here, before any
    // scoring — its essential cursors advance past it and `scored` stays
    // untouched, so the docs_scored counters surface the pruning.
    if (filter != nullptr && !filter->Accept(next)) {
      for (size_t t = first_essential; t < terms.size(); ++t) {
        if (cursor[t] < terms[t].postings.size() &&
            terms[t].postings[cursor[t]].doc == next) {
          ++cursor[t];
        }
      }
      continue;
    }

    if (options_.use_block_max) {
      // Block-max check: bound the best score any doc in [next, safe_end]
      // could reach, where safe_end is the smallest current-block-end doc
      // across the essential lists (every essential posting for a doc in
      // that range lies inside its list's current block, so the block max
      // caps its tf). If even that bound cannot beat the threshold, jump
      // all essential cursors past safe_end without decoding a thing.
      double upper = prefix[first_essential];
      DocId safe_end = kInvalidDoc;
      for (size_t t = first_essential; t < terms.size(); ++t) {
        const size_t n = terms[t].postings.size();
        if (cursor[t] >= n) continue;
        const size_t block = cursor[t] / kPostingBlockSize;
        if (block < terms[t].blocks.num_blocks) {
          const uint32_t block_max_tf = terms[t].blocks.block_max->At(block);
          upper += terms[t].qtf * terms[t].idf * TfBound(block_max_tf, norm_min);
          const size_t block_end =
              std::min((block + 1) * kPostingBlockSize, n) - 1;
          safe_end = std::min(safe_end, terms[t].postings[block_end].doc);
        } else {
          // Open tail block (no published block max): fall back to the
          // term-level bound over the rest of the list.
          upper += terms[t].bound;
          safe_end = std::min(safe_end, terms[t].postings[n - 1].doc);
        }
      }
      // Strict: a doc tying the threshold must still be scored (it can
      // displace the heap's worst entry), so only skip when even the upper
      // bound falls short. safe_end >= next, so the range is never empty
      // and the skip below always advances the cursor that defined `next`.
      if (upper * kBoundSlack < heap.Threshold()) {
        for (size_t t = first_essential; t < terms.size(); ++t) {
          const PostingView& postings = terms[t].postings;
          if (cursor[t] >= postings.size()) continue;
          const auto it = std::upper_bound(
              postings.begin() + static_cast<std::ptrdiff_t>(cursor[t]),
              postings.end(), safe_end,
              [](DocId doc, const Posting& p) { return doc < p.doc; });
          const size_t new_pos =
              static_cast<size_t>(it - postings.begin());
          skipped_blocks +=
              new_pos / kPostingBlockSize - cursor[t] / kPostingBlockSize;
          cursor[t] = new_pos;
        }
        continue;
      }
    }

    // Score essential terms at `next`, advancing their cursors.
    parts.clear();
    double partial = 0.0;  // traversal-order sum: for the bound tests only
    for (size_t t = first_essential; t < terms.size(); ++t) {
      if (cursor[t] < terms[t].postings.size() &&
          terms[t].postings[cursor[t]].doc == next) {
        const double c = Score(terms[t].qtf, terms[t].idf,
                               terms[t].postings[cursor[t]], avgdl);
        parts.emplace_back(terms[t].query_pos, c);
        partial += c;
        ++cursor[t];
      }
    }

    // Probe non-essential terms, best bound first, pruning when even the
    // remaining bounds cannot reach the threshold. Strict comparison for
    // the same tie-displacement reason as above.
    for (size_t t = first_essential; t-- > 0;) {
      if ((partial + prefix[t + 1]) * kBoundSlack < heap.Threshold()) break;
      const PostingView& postings = terms[t].postings;
      const auto it = std::lower_bound(
          postings.begin(), postings.end(), next,
          [](const Posting& p, DocId doc) { return p.doc < doc; });
      if (it != postings.end() && it->doc == next) {
        const double c = Score(terms[t].qtf, terms[t].idf, *it, avgdl);
        parts.emplace_back(terms[t].query_pos, c);
        partial += c;
      }
    }

    ++scored;
    // Most scored docs miss the heap; only a possible entrant pays for the
    // canonical score, the same query-order sum as ScoreAll/ScoreDoc.
    if (partial * kBoundSlack < heap.Threshold()) continue;
    std::sort(parts.begin(), parts.end());
    double score = 0.0;
    for (const auto& [pos, c] : parts) score += c;
    heap.Push(ScoredDoc{next, score});
  }
  return finish(heap.Take());
}

}  // namespace ir
}  // namespace newslink
