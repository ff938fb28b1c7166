// nlbench gen: write one workload's inputs for one seed.
//
//   nlbench gen --out DIR --seed S --countries C --stories N
//               --heldout-stories H [--shards K]
//
// Writes DIR/kg.{nodes,edges}.tsv (a synthetic KG of 360 nodes per
// country, the same for every seed), DIR/corpus.tsv (CNN-like stories
// over that KG), DIR/heldout.tsv (newer stories, timestamped after the
// corpus, for live ingestion) and, with K > 1, DIR/shard<i>.tsv: the
// corpus rows congruent to i (mod K), which is the slice
// `serve --shard-index i --shard-count K` keeps. The same arguments give
// byte-identical files.

#include <cstdio>
#include <string>

#include "common.h"
#include "corpus/corpus_io.h"
#include "corpus/synthetic_news.h"
#include "kg/kg_io.h"
#include "kg/synthetic_kg.h"

namespace nlbench {

namespace {

void Check(const newslink::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(2);
  }
}

}  // namespace

int GenMain(const Args& args) {
  using namespace newslink;
  const std::string out = args.Get("out", "");
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  if (out.empty()) {
    std::fprintf(stderr, "gen needs --out\n");
    return 1;
  }

  // Per-country shape of the repository's bench world (bench_util.h):
  // 6 countries give the 2,160-node bench KG, 300 give ~10^5 nodes. The KG
  // is a fixed reference graph per scale (seed 7, as in bench_util.h), the
  // way one Wikidata dump serves every corpus; the run seed varies the
  // corpus, the held-out stream and the requests.
  kg::SyntheticKgConfig kg_config;
  kg_config.seed = 7;
  kg_config.num_countries = static_cast<int>(args.GetInt("countries", 6));
  kg_config.provinces_per_country = 8;
  kg_config.districts_per_province = 5;
  kg_config.cities_per_district = 4;
  kg_config.companies_per_country = 14;
  kg_config.events_per_country = 20;
  const kg::SyntheticKg world = kg::SyntheticKgGenerator(kg_config).Generate();
  Check(kg::SaveTsv(world.graph, out + "/kg"));

  corpus::SyntheticNewsConfig news = corpus::CnnLikeConfig();
  news.seed = seed * 1000003 + 11;
  news.num_stories = static_cast<int>(args.GetInt("stories", 2000));
  const corpus::Corpus docs =
      corpus::SyntheticNewsGenerator(&world, news).Generate("doc").corpus;
  Check(corpus::SaveTsv(docs, out + "/corpus.tsv"));

  // Held-out stories continue the wire feed after the corpus's last
  // timestamp, so every ingest is newer than the archive.
  int64_t last_ms = 0;
  for (const corpus::Document& d : docs.docs()) {
    last_ms = std::max(last_ms, d.timestamp_ms);
  }
  corpus::SyntheticNewsConfig fresh = news;
  fresh.seed = seed * 1000003 + 29;
  fresh.num_stories = static_cast<int>(args.GetInt("heldout-stories", 40));
  fresh.timestamp_start_ms = last_ms + 2 * news.timestamp_spacing_ms;
  const corpus::Corpus heldout =
      corpus::SyntheticNewsGenerator(&world, fresh).Generate("new").corpus;
  Check(corpus::SaveTsv(heldout, out + "/heldout.tsv"));

  const int64_t shards = args.GetInt("shards", 1);
  for (int64_t s = 0; shards > 1 && s < shards; ++s) {
    corpus::Corpus slice;
    for (size_t row = static_cast<size_t>(s); row < docs.size();
         row += static_cast<size_t>(shards)) {
      slice.Add(docs.doc(row));
    }
    Check(corpus::SaveTsv(slice, out + "/shard" + std::to_string(s) + ".tsv"));
  }
  std::fprintf(stderr, "gen: %zu KG nodes, %zu docs, %zu held-out docs\n",
               world.graph.num_nodes(), docs.size(), heldout.size());
  return 0;
}

}  // namespace nlbench
