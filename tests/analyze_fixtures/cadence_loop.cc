// Analyzer fixture: query-path loops and the cancellation-cadence contract.
// A loop reachable from a query entry point that does compound work must
// poll the QueryContext; leaf loops bounded by the dimension are allowed.

#include "util/query_context.h"

namespace fixture {

class Scanner {
 public:
  // Flagged: infinite rehash-style loop, never consults ctx.
  int Query(const QueryContext* ctx, int budget) {
    int acc = 0;
    while (true) {
      acc += ChunkSum();
      if (acc > budget) break;
    }
    return acc;
  }

  // Clean: same shape, polls cancellation every round.
  int QueryBatch(const QueryContext* ctx, int budget) {
    int acc = 0;
    while (true) {
      if (ctx->cancelled()) break;
      acc += ChunkSum();
      if (acc > budget) break;
    }
    return acc;
  }

  // Clean: polls through a named local lambda — lexical attribution must
  // credit the enclosing loop.
  int RangeQuery(const QueryContext* ctx, int rounds) {
    int acc = 0;
    auto step = [&](int r) {
      if (ctx->cancelled()) return 0;
      return r + ChunkSum();
    };
    for (int r = 0; r < rounds; ++r) {
      acc += step(r);
    }
    return acc;
  }

  // Clean: a leaf loop over one vector's dimensions is exactly the
  // granularity the cadence contract allows between polls.
  int ChunkSum() {
    int s = 0;
    for (int i = 0; i < 64; ++i) s += i;
    return s;
  }

 private:
  int dim_ = 64;
};

// Clean: not reachable from any query entry point, no cadence obligation.
class Offline {
 public:
  int Rebuild(int n) {
    int acc = 0;
    while (true) {
      acc += Mix(n);
      if (acc > n) break;
    }
    return acc;
  }

  int Mix(int n) {
    int s = 0;
    for (int i = 0; i < n; ++i) s += i;
    return s;
  }
};

}  // namespace fixture
