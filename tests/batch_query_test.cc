// Concurrency tests: parallel queries — through Searchers, plain Query calls,
// or a sharded QueryBatch — must match the serial answers exactly (the index
// is immutable during queries and every query owns its state).

#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/index.h"
#include "src/util/thread_annotations.h"
#include "src/vector/synthetic.h"
#include "tests/reference_c2lsh.h"

namespace c2lsh {
namespace {

struct BatchWorld {
  Dataset data;
  FloatMatrix queries;
  C2lshIndex index;
};

BatchWorld MakeBatchWorld() {
  auto pd = MakeProfileDataset(DatasetProfile::kMnist, 3000, 32, 9);
  EXPECT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 21;
  auto index = C2lshIndex::Build(pd->data, o);
  EXPECT_TRUE(index.ok());
  return BatchWorld{std::move(pd->data), std::move(pd->queries),
                    std::move(index).value()};
}

TEST(BatchQueryTest, ShardedBatchMatchesReference) {
  BatchWorld w = MakeBatchWorld();
  for (size_t num_shards : {1u, 4u}) {
    C2lshIndex::BatchQueryOptions options;
    options.num_shards = num_shards;
    std::vector<C2lshQueryStats> stats;
    auto batch = w.index.QueryBatch(w.data, w.queries, 10, options, &stats);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), w.queries.num_rows());
    for (size_t q = 0; q < w.queries.num_rows(); ++q) {
      const std::string diff = reference::Diff(
          reference::FromEngine((*batch)[q], stats[q]),
          reference::Query(w.index, w.data, w.queries.row(q), 10));
      EXPECT_TRUE(diff.empty()) << "shards=" << num_shards << " q=" << q << ": " << diff;
    }
  }
}

TEST(BatchQueryTest, ManualSearchersRunConcurrently) {
  BatchWorld w = MakeBatchWorld();
  // Reference answers.
  std::vector<NeighborList> expected;
  for (size_t q = 0; q < 8; ++q) {
    auto r = w.index.Query(w.data, w.queries.row(q), 5);
    ASSERT_TRUE(r.ok());
    expected.push_back(std::move(r).value());
  }
  // 8 threads, each hammering its own query repeatedly through its own
  // Searcher. Any cross-thread scratch corruption shows up as a mismatch.
  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      C2lshIndex::Searcher searcher(&w.index);
      for (int rep = 0; rep < 20; ++rep) {
        auto r = searcher.Query(w.data, w.queries.row(t), 5);
        if (!r.ok() || r->size() != expected[t].size()) {
          ++failures[t];
          continue;
        }
        for (size_t i = 0; i < r->size(); ++i) {
          if ((*r)[i].id != expected[t][i].id) ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

// Query itself owns no shared scratch: plain concurrent calls on one index
// (no Searcher) return the serial answers, and TSan sees no race.
TEST(BatchQueryTest, ConcurrentQueryCallsMatchSerial) {
  BatchWorld w = MakeBatchWorld();
  std::vector<NeighborList> expected;
  for (size_t q = 0; q < 4; ++q) {
    auto r = w.index.Query(w.data, w.queries.row(q), 5);
    ASSERT_TRUE(r.ok());
    expected.push_back(std::move(r).value());
  }
  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      for (int rep = 0; rep < 10; ++rep) {
        auto r = w.index.Query(w.data, w.queries.row(t), 5);
        if (!r.ok() || *r != expected[t]) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < 4; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace c2lsh
