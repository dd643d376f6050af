// Checks of the benchmark's own logic (bench_lib.h). run.py runs this before
// every measurement and refuses to report if it fails. Exit code 0 = all
// checks passed; each failure prints one line.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "perfbench/bench_lib.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

void PercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const perfbench::Percentile p99 = perfbench::PercentileOf(v, 99.0);
  Expect(p99.value == 990.0, "p99 of 1..1000 is the 990th sample");
  Expect(p99.samples == 1000 && p99.beyond == 10, "p99 of 1000 has 10 beyond");
  Expect(p99.published, "p99 of 1000 samples is published");
  v.pop_back();
  Expect(!perfbench::PercentileOf(v, 99.0).published,
         "p99 of 999 samples (9 beyond) is not published");
  const perfbench::Percentile p50 = perfbench::PercentileOf({3, 1, 2}, 50.0);
  Expect(p50.value == 2.0 && p50.beyond == 1 && !p50.published,
         "median of 3 is the middle value, unpublished");
  Expect(!perfbench::PercentileOf({}, 50.0).published, "empty is unpublished");
  Expect(perfbench::NearestRank(100, 90.0) == 90, "nearest rank of p90 of 100");
  Expect(perfbench::PercentileOf(std::vector<double>(100, 1.0), 90.0).published,
         "p90 of 100 samples is published");
  Expect(!perfbench::PercentileOf(std::vector<double>(99, 1.0), 90.0).published,
         "p90 of 99 samples is not published");
  Expect(perfbench::HighestPublishable(1000) == 99.0, "1000 samples publish p99");
  Expect(perfbench::HighestPublishable(250) == 95.0, "250 samples publish p95");
  Expect(perfbench::HighestPublishable(120) == 90.0, "120 samples publish p90");
  Expect(perfbench::HighestPublishable(15) == 0.0, "15 samples publish nothing");
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

void Medians() {
  Expect(perfbench::Median({3, 1, 2}) == 2.0, "median of an odd count is the middle value");
  Expect(perfbench::Median({4, 1, 3, 2}) == 2.5, "median of an even count is the middle mean");
  Expect(perfbench::Median({}) == 0.0, "median of nothing is 0");
}

void WindowRate() {
  // 1 s windows holding 10, 10, 30, 10 and 2 evenly spaced completions rate
  // 10, 10, 30, 10 and 2 per second: the median is 10.
  std::vector<double> t;
  auto fill = [&](double from, int n) {
    for (int i = 0; i < n; ++i) t.push_back(from + static_cast<double>(i) / n);
  };
  fill(0, 10), fill(1, 10), fill(2, 30), fill(3, 10), fill(4, 2);
  t.push_back(5.5);  // past the last full window: ignored
  Expect(Near(perfbench::MedianWindowRate(t, 5.0, 1.0), 10.0), "median window rate");
  // Two windows, rating 10 and 30: the mean of the middle pair.
  std::vector<double> two;
  for (int i = 0; i < 10; ++i) two.push_back(i / 10.0);
  for (int i = 0; i < 30; ++i) two.push_back(1.0 + i / 30.0);
  Expect(Near(perfbench::MedianWindowRate(two, 2.0, 1.0), 20.0),
         "an even window count takes the mean of the middle pair");
  Expect(perfbench::MedianWindowRate(t, 0.5, 1.0) == 0.0, "no full window");
  Expect(perfbench::MedianWindowRate({0.5}, 1.0, 1.0) == 0.0, "one completion has no rate");
}

void WindowedTail() {
  // Five 1 s windows of 100 calls; the latencies of window w are w*1000 +
  // 1..100, except window 2, a burst, at 10^6 + 1..100. Per-window p90s are
  // 90, 1090, 1000090, 3090, 4090: the median is 3090.
  std::vector<double> end, lat;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) {
      end.push_back(w + i / 101.0);
      lat.push_back((w == 2 ? 1e6 : w * 1000.0) + i);
    }
  }
  const perfbench::Percentile q = perfbench::WindowedPercentile(end, lat, 5.0, 1.0, 90.0);
  Expect(q.published && q.value == 3090.0 && q.samples == 500,
         "windowed p90 is the median of the window p90s");
  // Windows of 50 calls cannot publish a p90 (5 beyond): nothing qualifies.
  const perfbench::Percentile thin =
      perfbench::WindowedPercentile(end, lat, 5.0, 0.5, 90.0);
  Expect(!thin.published, "windows too small for the percentile publish nothing");
}

void Determinism() {
  const perfbench::Zipf queries(200, 1.0), tenants(8, 1.0);
  const auto a = perfbench::MakeSchedule(7, 50.0, 2000, queries, tenants);
  const auto b = perfbench::MakeSchedule(7, 50.0, 2000, queries, tenants);
  const auto c = perfbench::MakeSchedule(8, 50.0, 2000, queries, tenants);
  bool same = a.size() == b.size(), differs = false, monotone = true;
  std::vector<size_t> per_tenant(8, 0);
  for (size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].due_s == b[i].due_s && a[i].query == b[i].query &&
           a[i].tenant == b[i].tenant;
    differs = differs || a[i].due_s != c[i].due_s || a[i].query != c[i].query;
    if (i > 0) monotone = monotone && a[i].due_s > a[i - 1].due_s;
    ++per_tenant[a[i].tenant];
  }
  Expect(same, "one seed gives one schedule");
  Expect(differs, "another seed gives another schedule");
  Expect(monotone, "due times increase");
  const double rate = static_cast<double>(a.size()) / a.back().due_s;
  Expect(rate > 49.9 && rate < 50.1, "schedule keeps its rate");
  bool bounded = true;
  for (size_t i = 1; i < a.size(); ++i) {
    const double gap = (a[i].due_s - a[i - 1].due_s) * 50.0;
    bounded = bounded && gap >= 0.5 && gap <= 1.5;
  }
  Expect(bounded, "gaps stay within half and one and a half mean gaps");
  // Every due time stays inside its own slot, so a window of a whole number
  // of slots holds exactly that many arrivals.
  std::vector<size_t> per_second(40, 0);
  for (const perfbench::Arrival& x : a) ++per_second[static_cast<size_t>(x.due_s)];
  Expect(std::all_of(per_second.begin(), per_second.end(), [](size_t n) { return n == 50; }),
         "each 1 s window at 50/s holds exactly 50 arrivals");
  // P(tenant 0) = 1 / H_8 ~ 0.368 of 2000 arrivals.
  Expect(per_tenant[0] > 660 && per_tenant[0] < 810, "tenant draws are zipf");
  Expect(per_tenant[0] > per_tenant[7], "tenant 0 is drawn most");

  perfbench::Rng r1 = perfbench::Rng::Stream(5, 3), r2 = perfbench::Rng::Stream(5, 3);
  std::vector<size_t> counts(200, 0);
  bool zipf_same = true;
  for (int i = 0; i < 20000; ++i) {
    const size_t x = queries.Draw(r1);
    zipf_same = zipf_same && x == queries.Draw(r2);
    ++counts[x];
  }
  Expect(zipf_same, "one stream gives one zipf sequence");
  // P(rank 0) = 1 / H_200 ~ 0.170 and P(rank 1) is half of it.
  Expect(counts[0] > 3100 && counts[0] < 3700, "zipf head has its mass");
  Expect(counts[0] > counts[1] && counts[1] > counts[9], "zipf decreases");
}

void Folding() {
  using perfbench::FoldSpan;
  // Thread 1: A [0,100) holds B [10,40) and its sibling C [50,90); B holds
  // D [20,30). Thread 2: E [0,100) overlaps A in time but is no child of it.
  std::vector<FoldSpan> spans = {
      {1, 4, 0, 100, 0},   // A, emitted last
      {1, 1, 10, 30, 1},   // B
      {1, 0, 20, 10, 2},   // D
      {1, 3, 50, 40, 1},   // C
      {2, 0, 0, 100, 3},   // E
  };
  std::map<uint8_t, uint64_t> self = perfbench::FoldSelfTime(spans);
  Expect(self[0] == 100 - 30 - 40, "parent minus nested and sibling children");
  Expect(self[1] == (30 - 10) + 40, "child minus its own child, plus sibling");
  Expect(self[2] == 10, "leaf keeps its duration");
  Expect(self[3] == 100, "another thread's span is never a child");

  // Identical intervals: the later-emitted span is the parent; a zero-length
  // instant-like span at the parent's end is still inside it.
  std::vector<FoldSpan> same = {{1, 0, 5, 20, 1}, {1, 1, 5, 20, 0}, {1, 2, 25, 0, 2}};
  self = perfbench::FoldSelfTime(same);
  Expect(self[0] == 0 && self[1] == 20 && self[2] == 0,
         "equal intervals nest by emission order");

  // Back-to-back roots, in any input order, fold independently.
  std::vector<FoldSpan> roots = {{1, 1, 10, 10, 0}, {1, 0, 0, 10, 0}};
  self = perfbench::FoldSelfTime(roots);
  Expect(self[0] == 20, "disjoint roots each keep their duration");
}

}  // namespace

int main() {
  PercentileRule();
  Medians();
  WindowRate();
  WindowedTail();
  Determinism();
  Folding();
  if (g_failures != 0) {
    std::printf("perfbench selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: ok\n");
  return 0;
}
