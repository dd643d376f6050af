// The benchmark's own logic, kept free of the library so selftest.cc can
// check it in isolation: the seeded random streams, the zipf draws and the
// open-loop send schedule, the percentile-publication rule, the per-window
// medians, and the folding of per-thread spans into self time per layer.

#pragma once
#ifndef C2LSH_PERFBENCH_BENCH_LIB_H_
#define C2LSH_PERFBENCH_BENCH_LIB_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// SplitMix64: one 64-bit state word, fully determined by the seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Independent stream `k` of this seed (a fixed mix, not a draw).
  static Rng Stream(uint64_t seed, uint64_t k) {
    Rng r(seed ^ (0xd1b54a32d192ed03ull * (k + 1)));
    r.Next();
    return r;
  }

 private:
  uint64_t state_;
};

// Zipf over ranks [0, n): P(i) proportional to 1 / (i + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Draw(Rng& rng) const {
    const double u = rng.Uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

// One open-loop arrival: when it is due (seconds from the phase start), the
// query pool entry it sends, and the tenant it sends it as.
struct Arrival {
  double due_s = 0.0;
  uint32_t query = 0;
  uint32_t tenant = 0;
};

// `count` arrivals at `rate` per second: arrival i is due at a seeded
// uniform point in the middle half of its slot [i, i + 1) / rate, so gaps
// vary between half and one and a half times the mean but never bunch up;
// queries and tenants are zipf draws. Even spacing keeps the latency tail a
// property of the service time rather than of arrival bursts, which a
// shared host would amplify. A pure function of its arguments: the same
// seed always yields the same schedule.
inline std::vector<Arrival> MakeSchedule(uint64_t seed, double rate, size_t count,
                                         const Zipf& queries, const Zipf& tenants) {
  Rng jitter = Rng::Stream(seed, 101);
  Rng picks = Rng::Stream(seed, 102);
  std::vector<Arrival> out(count);
  for (size_t i = 0; i < count; ++i) {
    Arrival& a = out[i];
    a.due_s = (static_cast<double>(i) + 0.25 + 0.5 * jitter.Uniform()) / rate;
    a.query = static_cast<uint32_t>(queries.Draw(picks));
    a.tenant = static_cast<uint32_t>(tenants.Draw(picks));
  }
  return out;
}

// The percentile rule: a percentile is published under its name only when at
// least kMinBeyond samples lie strictly beyond its rank. Ranks are nearest-
// rank: the p-th percentile of n sorted samples is the ceil(p/100 * n)-th.
inline constexpr size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;  // samples ranked after the reported one
  bool published = false;
};

inline size_t NearestRank(size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

inline Percentile PercentileOf(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const size_t rank = NearestRank(samples.size(), p);
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  out.published = out.beyond >= kMinBeyond;
  return out;
}

// The highest of the usual percentiles that the rule lets a sample count of
// `n` publish, or 0 when not even the median can be.
inline double HighestPublishable(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n - std::min(n, NearestRank(n, p)) >= kMinBeyond) return p;
  }
  return 0.0;
}

// The median: the middle value, or the mean of the middle pair; 0 if empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Throughput of a closed loop as the median over its full windows of
// `window_s` seconds. A window's rate is measured between its first and last
// completion, (n - 1) / (t_last - t_first), so it is not rounded to whole
// completions per window; a window with fewer than two completions rates 0.
// The median keeps a few seconds of outside interference from moving it.
inline double MedianWindowRate(std::vector<double> completion_s, double seconds,
                               double window_s) {
  const size_t windows = static_cast<size_t>(seconds / window_s + 1e-9);
  if (windows == 0) return 0.0;
  std::sort(completion_s.begin(), completion_s.end());
  std::vector<double> rates;
  size_t i = 0;
  for (size_t w = 0; w < windows; ++w) {
    const double lo = static_cast<double>(w) * window_s, hi = lo + window_s;
    while (i < completion_s.size() && completion_s[i] < lo) ++i;
    size_t j = i;
    while (j < completion_s.size() && completion_s[j] < hi) ++j;
    const double span = j > i + 1 ? completion_s[j - 1] - completion_s[i] : 0.0;
    rates.push_back(span > 0 ? static_cast<double>(j - i - 1) / span : 0.0);
    i = j;
  }
  return Median(std::move(rates));
}

// A percentile of per-call latencies taken in each full window of
// `window_s` seconds, then the median over the windows whose own percentile
// the rule publishes; `samples` counts every call. A call falls in the
// window of its time `at_s` from the phase start: its completion in a closed
// loop, its due time in an open loop. Published only when at least three
// windows qualify. Like MedianWindowRate, the median keeps a burst of
// outside interference in one window from moving it.
inline Percentile WindowedPercentile(const std::vector<double>& at_s,
                                     const std::vector<double>& values, double seconds,
                                     double window_s, double p) {
  const size_t windows = static_cast<size_t>(seconds / window_s + 1e-9);
  std::vector<std::vector<double>> per(windows);
  for (size_t i = 0; i < at_s.size() && i < values.size(); ++i) {
    const size_t w = static_cast<size_t>(at_s[i] / window_s);
    if (at_s[i] >= 0 && w < windows) per[w].push_back(values[i]);
  }
  std::vector<double> qualified;
  for (std::vector<double>& v : per) {
    const Percentile q = PercentileOf(std::move(v), p);
    if (q.published) qualified.push_back(q.value);
  }
  Percentile out;
  out.samples = values.size();
  if (qualified.size() < 3) return out;
  out.value = Median(std::move(qualified));
  out.published = true;
  return out;
}

// A finished span as the fold sees it. `layer` is an opaque small integer
// (the caller's subsystem id); `seq` orders spans emitted by one thread.
struct FoldSpan {
  uint32_t tid = 0;
  uint64_t seq = 0;
  uint64_t start = 0;
  uint64_t dur = 0;
  uint8_t layer = 0;
};

// Self time per layer: each span's duration minus the part of it its child
// spans cover. Children are spans of the same thread that lie inside the
// parent's interval; spans on one thread nest or are disjoint, so the
// covered part is the sum of the direct children's durations. Of two spans
// with the same interval, the one emitted later (the outer scope ends last)
// is the parent. Spans on other threads never count as children.
inline std::map<uint8_t, uint64_t> FoldSelfTime(std::vector<FoldSpan> spans) {
  std::sort(spans.begin(), spans.end(), [](const FoldSpan& a, const FoldSpan& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start != b.start) return a.start < b.start;
    const uint64_t ea = a.start + a.dur, eb = b.start + b.dur;
    if (ea != eb) return ea > eb;
    return a.seq > b.seq;
  });
  std::map<uint8_t, uint64_t> self;
  struct Open {
    uint64_t end;
    uint8_t layer;
    uint64_t self;
  };
  std::vector<Open> stack;
  auto close = [&] {
    self[stack.back().layer] += stack.back().self;
    stack.pop_back();
  };
  uint32_t tid = 0;
  for (const FoldSpan& s : spans) {
    if (s.tid != tid) {
      while (!stack.empty()) close();
      tid = s.tid;
    }
    const uint64_t end = s.start + s.dur;
    while (!stack.empty() && stack.back().end < end) close();
    if (!stack.empty()) {
      Open& parent = stack.back();
      parent.self -= std::min(parent.self, s.dur);
    }
    stack.push_back(Open{end, s.layer, s.dur});
  }
  while (!stack.empty()) close();
  return self;
}

}  // namespace perfbench

#endif  // C2LSH_PERFBENCH_BENCH_LIB_H_
