// Tests for the MaxScore document-at-a-time retriever: exact agreement
// with exhaustive TAAT scoring (including tie order), plus evidence that
// pruning actually skips work.

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ir/max_score.h"
#include "ir/scorer.h"
#include "ir/top_k.h"

namespace newslink {
namespace ir {
namespace {

/// MaxScore sums each document's term contributions in query-term order,
/// exactly as TAAT ScoreAll does, so the two top-k lists must agree
/// entry for entry: same documents, same order, same score bits.
void ExpectSameTopK(const std::vector<ScoredDoc>& actual,
                    const std::vector<ScoredDoc>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].doc, expected[i].doc) << "rank " << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << "rank " << i;
  }
}

InvertedIndex MakeRandomIndex(uint64_t seed, size_t num_docs, size_t vocab,
                              size_t terms_per_doc) {
  Rng rng(seed);
  ZipfTable zipf(vocab, 1.0);
  InvertedIndex index;
  for (size_t d = 0; d < num_docs; ++d) {
    std::map<TermId, uint32_t> counts;
    for (size_t t = 0; t < terms_per_doc; ++t) {
      ++counts[static_cast<TermId>(zipf.Sample(&rng))];
    }
    index.AddDocument(TermCounts(counts.begin(), counts.end()));
  }
  return index;
}

TEST(MaxScoreTest, EmptyQueryAndUnknownTerms) {
  InvertedIndex index = MakeRandomIndex(1, 50, 100, 20);
  MaxScoreRetriever retriever(&index);
  EXPECT_TRUE(retriever.TopK({}, 10).empty());
  EXPECT_TRUE(retriever.TopK({{9999, 1}}, 10).empty());
  EXPECT_TRUE(retriever.TopK({{0, 1}}, 0).empty());
}

TEST(MaxScoreTest, SingleTermMatchesTaat) {
  InvertedIndex index = MakeRandomIndex(2, 100, 50, 15);
  Bm25Scorer scorer(&index);
  MaxScoreRetriever retriever(&index);
  const TermCounts query = {{3, 1}};
  ExpectSameTopK(retriever.TopK(query, 5),
                 SelectTopK(scorer.ScoreAll(query), 5));
}

TEST(MaxScoreTest, KLargerThanMatches) {
  InvertedIndex index = MakeRandomIndex(3, 20, 200, 10);
  Bm25Scorer scorer(&index);
  MaxScoreRetriever retriever(&index);
  const TermCounts query = {{0, 1}, {1, 2}};
  ExpectSameTopK(retriever.TopK(query, 1000),
                 SelectTopK(scorer.ScoreAll(query), 1000));
}

struct RandomQueryCase {
  uint64_t seed;
  size_t query_terms;
  size_t k;
};

class MaxScoreAgreementTest
    : public ::testing::TestWithParam<RandomQueryCase> {};

TEST_P(MaxScoreAgreementTest, IdenticalToExhaustiveTaat) {
  const RandomQueryCase param = GetParam();
  InvertedIndex index = MakeRandomIndex(param.seed, 400, 300, 40);
  Bm25Scorer scorer(&index);
  MaxScoreRetriever retriever(&index);
  Rng rng(param.seed * 31 + 7);

  for (int trial = 0; trial < 10; ++trial) {
    TermCounts query;
    std::set<TermId> used;
    while (query.size() < param.query_terms) {
      const TermId t = static_cast<TermId>(rng.Uniform(300));
      if (used.insert(t).second) {
        query.push_back({t, 1 + static_cast<uint32_t>(rng.Uniform(3))});
      }
    }
    std::sort(query.begin(), query.end());
    ExpectSameTopK(retriever.TopK(query, param.k),
                   SelectTopK(scorer.ScoreAll(query), param.k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, MaxScoreAgreementTest,
    ::testing::Values(RandomQueryCase{11, 2, 10}, RandomQueryCase{12, 4, 10},
                      RandomQueryCase{13, 8, 5}, RandomQueryCase{14, 8, 50},
                      RandomQueryCase{15, 16, 10},
                      RandomQueryCase{16, 3, 1}));

TEST(MaxScoreTest, PruningSkipsDocuments) {
  // A highly selective rare term + broad common terms: once the heap is
  // full of rare-term docs, common-only docs should be skipped.
  InvertedIndex index;
  // 500 docs with common term 0; every 50th also has rare term 1.
  for (int d = 0; d < 500; ++d) {
    TermCounts counts = {{0, 1}};
    if (d % 50 == 0) counts.push_back({1, 5});
    index.AddDocument(counts);
  }
  MaxScoreRetriever retriever(&index);
  const auto top = retriever.TopK({{0, 1}, {1, 1}}, 5);
  ASSERT_EQ(top.size(), 5u);
  for (const ScoredDoc& s : top) {
    EXPECT_EQ(s.doc % 50, 0u);  // all winners carry the rare term
  }
  EXPECT_LT(retriever.last_docs_scored(), 500u)
      << "MaxScore must not fully score every document";
}

TEST(MaxScoreTest, EquivalencePropertyRandomCorporaAndQueries) {
  // Property sweep: on random corpora and random queries the pruned
  // retriever returns the SAME documents as exhaustive TAAT in the same
  // order with bit-identical scores, ties broken towards smaller doc ids.
  for (const uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    const size_t num_docs = 100 + (seed % 7) * 50;
    InvertedIndex index = MakeRandomIndex(seed, num_docs, 250, 30);
    Bm25Scorer scorer(&index);
    MaxScoreRetriever retriever(&index);
    Rng rng(seed * 977 + 13);

    for (int trial = 0; trial < 20; ++trial) {
      TermCounts query;
      std::set<TermId> used;
      const size_t num_terms = 1 + rng.Uniform(10);
      while (query.size() < num_terms) {
        const TermId t = static_cast<TermId>(rng.Uniform(250));
        if (used.insert(t).second) {
          query.push_back({t, 1 + static_cast<uint32_t>(rng.Uniform(4))});
        }
      }
      std::sort(query.begin(), query.end());
      const size_t k = 1 + rng.Uniform(30);

      const auto pruned = retriever.TopK(query, k);
      const auto exact = SelectTopK(scorer.ScoreAll(query), k);
      ASSERT_EQ(pruned.size(), exact.size()) << "seed " << seed;

      std::vector<DocId> pruned_docs, exact_docs;
      for (const ScoredDoc& s : pruned) pruned_docs.push_back(s.doc);
      for (const ScoredDoc& s : exact) exact_docs.push_back(s.doc);
      std::vector<DocId> pruned_sorted = pruned_docs;
      std::vector<DocId> exact_sorted = exact_docs;
      std::sort(pruned_sorted.begin(), pruned_sorted.end());
      std::sort(exact_sorted.begin(), exact_sorted.end());
      ASSERT_EQ(pruned_sorted, exact_sorted)
          << "seed " << seed << " trial " << trial << ": doc sets differ";

      for (size_t i = 0; i < pruned.size(); ++i) {
        EXPECT_EQ(pruned[i].doc, exact[i].doc);
        EXPECT_EQ(pruned[i].score, exact[i].score);
        if (i > 0 && pruned[i].score == pruned[i - 1].score) {
          EXPECT_LT(pruned[i - 1].doc, pruned[i].doc)
              << "exact ties must order by doc id";
        }
      }
    }
  }
}

TEST(MaxScoreTest, BlockMaxAgreesWithPlainMaxScoreAndScoresFewerDocs) {
  // Three-way agreement — Block-Max MaxScore, classic MaxScore, exhaustive
  // TAAT — plus the monotone work bound: per-block upper bounds are at
  // least as tight as whole-list bounds, so block-max never scores more.
  for (const uint64_t seed : {61u, 62u, 63u}) {
    InvertedIndex index = MakeRandomIndex(seed, 600, 200, 35);
    Bm25Scorer scorer(&index);
    MaxScoreRetriever block_max(&index, {}, MaxScoreOptions{true});
    MaxScoreRetriever plain(&index, {}, MaxScoreOptions{false});
    Rng rng(seed * 131 + 5);

    for (int trial = 0; trial < 10; ++trial) {
      TermCounts query;
      std::set<TermId> used;
      const size_t num_terms = 2 + rng.Uniform(6);
      while (query.size() < num_terms) {
        const TermId t = static_cast<TermId>(rng.Uniform(200));
        if (used.insert(t).second) {
          query.push_back({t, 1 + static_cast<uint32_t>(rng.Uniform(3))});
        }
      }
      std::sort(query.begin(), query.end());
      const size_t k = 1 + rng.Uniform(20);

      size_t blocked_scored = 0, blocks_skipped = 0, plain_scored = 0;
      const auto blocked = block_max.TopK(query, k, &blocked_scored,
                                          &blocks_skipped);
      const auto unblocked = plain.TopK(query, k, &plain_scored);
      const auto exact = SelectTopK(scorer.ScoreAll(query), k);
      ExpectSameTopK(blocked, exact);
      ExpectSameTopK(unblocked, exact);
      EXPECT_LE(blocked_scored, plain_scored)
          << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(MaxScoreTest, BlockMaxSkipsWholeBlocks) {
  // term 1's first posting block is all tf == 10 and every later block is
  // tf == 1. Once the heap fills from the first block, every tf == 1
  // block's upper bound falls below the threshold and classic MaxScore's
  // doc-at-a-time walk turns into whole-block skips. (b must stay well
  // inside (0, 1): at b == 0 the bound is exact and the threshold ties the
  // total bound, ending the walk via the essential split instead.)
  InvertedIndex index;
  const int n = 64 * static_cast<int>(kPostingBlockSize);
  for (int d = 0; d < n; ++d) {
    TermCounts counts = {{0, 1}};
    if (d % 4 == 0) {
      counts.push_back(
          {1, d < 4 * static_cast<int>(kPostingBlockSize) ? 10u : 1u});
    }
    index.AddDocument(counts);
  }
  const Bm25Params params{1.2, 0.5};
  Bm25Scorer scorer(&index, params);
  MaxScoreRetriever retriever(&index, params);
  size_t docs_scored = 0, blocks_skipped = 0;
  const TermCounts query = {{0, 1}, {1, 1}};
  const auto top = retriever.TopK(query, 5, &docs_scored, &blocks_skipped);
  ExpectSameTopK(top, SelectTopK(scorer.ScoreAll(query), 5));
  ASSERT_EQ(top.size(), 5u);
  for (const ScoredDoc& s : top) {
    EXPECT_LT(s.doc, static_cast<DocId>(4 * kPostingBlockSize));
  }
  EXPECT_GT(blocks_skipped, 0u) << "range skips must cross block boundaries";
  EXPECT_EQ(blocks_skipped, retriever.last_blocks_skipped());
  EXPECT_LT(docs_scored, static_cast<size_t>(n) / 8)
      << "block-max should prune nearly all tf == 1 blocks";

  // Classic MaxScore on the same query cannot skip those blocks: the term
  // bound (tf == 10) keeps every candidate's upper estimate above the
  // threshold, so it scores far more documents.
  MaxScoreRetriever plain(&index, params, MaxScoreOptions{false});
  size_t plain_scored = 0;
  ExpectSameTopK(plain.TopK(query, 5, &plain_scored),
                 SelectTopK(scorer.ScoreAll(query), 5));
  EXPECT_GT(plain_scored, 2 * docs_scored)
      << "the per-block bound must beat the whole-list bound here";
}

TEST(MaxScoreTest, BlockMaxHandlesPartialTailBlock) {
  // List lengths deliberately not multiples of kPostingBlockSize: the tail
  // postings past the last recorded block max fall back to the term bound.
  InvertedIndex index =
      MakeRandomIndex(71, 3 * kPostingBlockSize + 17, 40, 12);
  Bm25Scorer scorer(&index);
  MaxScoreRetriever retriever(&index);
  const TermCounts query = {{0, 1}, {3, 2}, {8, 1}};
  ExpectSameTopK(retriever.TopK(query, 7),
                 SelectTopK(scorer.ScoreAll(query), 7));
}

namespace {

/// Parity filter used by the DocFilter tests: ctx points at a DocId
/// modulus; only documents with doc % modulus == 0 are accepted.
bool AcceptMultiplesOf(const void* ctx, DocId doc) {
  return doc % *static_cast<const DocId*>(ctx) == 0;
}

}  // namespace

TEST(MaxScoreTest, DocFilterMatchesPostHocFilteredExhaustive) {
  // The pushed-down filter must select exactly the documents a post-hoc
  // filter of the exhaustive ranking would keep — pruning, not truncating
  // an unfiltered top-k.
  for (const uint64_t seed : {81u, 82u, 83u}) {
    InvertedIndex index = MakeRandomIndex(seed, 300, 150, 25);
    Bm25Scorer scorer(&index);
    MaxScoreRetriever retriever(&index);
    Rng rng(seed * 53 + 3);
    const DocId modulus = 3;
    const DocFilter filter{&AcceptMultiplesOf, &modulus};

    for (int trial = 0; trial < 10; ++trial) {
      TermCounts query;
      std::set<TermId> used;
      const size_t num_terms = 1 + rng.Uniform(6);
      while (query.size() < num_terms) {
        const TermId t = static_cast<TermId>(rng.Uniform(150));
        if (used.insert(t).second) {
          query.push_back({t, 1 + static_cast<uint32_t>(rng.Uniform(3))});
        }
      }
      std::sort(query.begin(), query.end());
      const size_t k = 1 + rng.Uniform(20);
      const IndexSnapshot snapshot = index.Capture();

      std::vector<ScoredDoc> reference = scorer.ScoreAll(query, snapshot);
      reference.erase(std::remove_if(reference.begin(), reference.end(),
                                     [&](const ScoredDoc& s) {
                                       return s.doc % modulus != 0;
                                     }),
                      reference.end());
      const auto expected = SelectTopK(reference, k);

      const auto pruned =
          retriever.TopK(query, k, snapshot, nullptr, nullptr, nullptr,
                         &filter);
      ExpectSameTopK(pruned, expected);
      for (const ScoredDoc& s : pruned) {
        EXPECT_EQ(s.doc % modulus, 0u);
      }

      // TAAT with the same pushed-down filter agrees too.
      const auto taat =
          SelectTopK(scorer.ScoreAll(query, snapshot, nullptr, &filter), k);
      ExpectSameTopK(taat, expected);
    }
  }
}

TEST(MaxScoreTest, DocFilterPrunesScoringWork) {
  InvertedIndex index = MakeRandomIndex(91, 400, 60, 20);
  MaxScoreRetriever retriever(&index);
  const TermCounts query = {{0, 1}, {1, 1}, {2, 1}};
  const IndexSnapshot snapshot = index.Capture();

  size_t unfiltered_scored = 0;
  (void)retriever.TopK(query, 10, snapshot, &unfiltered_scored);

  const DocId modulus = 4;
  const DocFilter filter{&AcceptMultiplesOf, &modulus};
  size_t filtered_scored = 0;
  (void)retriever.TopK(query, 10, snapshot, &filtered_scored, nullptr,
                       nullptr, &filter);
  ASSERT_GT(unfiltered_scored, 0u);
  EXPECT_LT(filtered_scored, unfiltered_scored)
      << "rejected documents must never be scored";
}

TEST(MaxScoreTest, DocFilterRejectingEverythingYieldsEmpty) {
  InvertedIndex index = MakeRandomIndex(92, 50, 40, 15);
  MaxScoreRetriever retriever(&index);
  const DocFilter reject_all{
      [](const void*, DocId) { return false; }, nullptr};
  const auto top = retriever.TopK({{0, 1}, {1, 1}}, 10, index.Capture(),
                                  nullptr, nullptr, nullptr, &reject_all);
  EXPECT_TRUE(top.empty());
}

TEST(MaxScoreTest, WithBonStyleParams) {
  // The BON index uses k1 = 0.8, b = 0; agreement must hold there too.
  InvertedIndex index = MakeRandomIndex(17, 200, 100, 25);
  const Bm25Params params{0.8, 0.0};
  Bm25Scorer scorer(&index, params);
  MaxScoreRetriever retriever(&index, params);
  const TermCounts query = {{1, 3}, {5, 1}, {17, 1}};
  ExpectSameTopK(retriever.TopK(query, 10),
                 SelectTopK(scorer.ScoreAll(query), 10));
}

}  // namespace
}  // namespace ir
}  // namespace newslink
