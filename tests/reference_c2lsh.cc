#include "tests/reference_c2lsh.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/core/virtual_rehash.h"
#include "src/vector/distance.h"

namespace c2lsh {
namespace reference {

Answer Query(const C2lshIndex& index, const Dataset& data, const float* query, size_t k,
             const std::function<bool(ObjectId)>& filter) {
  const size_t m = index.num_tables();
  const size_t n = index.num_objects();
  const uint32_t l = static_cast<uint32_t>(index.derived().l);
  const double c = index.derived().model.c;
  const long long c_int = static_cast<long long>(std::llround(c));
  const size_t t2 = std::min<size_t>(
      n, k + static_cast<size_t>(std::ceil(index.derived().beta * static_cast<double>(n))));

  // The index's base buckets: entries[i] = every live (h_i(o), o) of table i.
  std::vector<std::vector<std::pair<BucketId, ObjectId>>> entries(m);
  std::vector<BucketId> query_bucket(m);
  for (size_t i = 0; i < m; ++i) {
    index.table(i).ForEachEntry(
        [&](BucketId b, ObjectId o) { entries[i].emplace_back(b, o); });
    query_bucket[i] = index.family().function(i).Bucket(query);
  }

  Answer answer;
  for (long long R = 1;; R *= c_int) {
    ++answer.rounds;
    answer.final_radius = R;
    const bool past_cap = R > index.radius_cap();

    // Count every object's collisions at radius R from scratch.
    std::vector<uint32_t> count(n, 0);
    bool exhausted = true;
    for (size_t i = 0; i < m; ++i) {
      const BucketId q_level = LevelBucket(query_bucket[i], R);
      for (const auto& [bucket, id] : entries[i]) {
        if (past_cap || LevelBucket(bucket, R) == q_level) {
          ++count[id];
        } else {
          exhausted = false;
        }
      }
    }

    // Verify the frequent objects: count >= l.
    NeighborList verified;
    uint64_t increments = 0;
    for (size_t id = 0; id < n; ++id) {
      increments += count[id];
      const ObjectId oid = static_cast<ObjectId>(id);
      if (count[id] < l || (filter && !filter(oid))) continue;
      const double dist = L2(query, data.object(oid), data.dim());
      verified.push_back(Neighbor{oid, static_cast<float>(dist)});
    }
    answer.collision_increments = increments;
    answer.candidates_verified = verified.size();

    // T1: k verified within c*R. T2: k + beta*n verified. Else exhaustion.
    size_t within = 0;
    for (const Neighbor& nb : verified) {
      if (nb.dist <= c * static_cast<double>(R)) ++within;
    }
    if (within >= k) {
      answer.termination = Termination::kT1;
    } else if (verified.size() >= t2) {
      answer.termination = Termination::kT2;
    } else if (exhausted) {
      answer.termination = Termination::kExhausted;
    } else {
      continue;
    }
    std::sort(verified.begin(), verified.end(), NeighborLess());
    if (verified.size() > k) verified.resize(k);
    answer.neighbors = std::move(verified);
    return answer;
  }
}

std::string Diff(const Answer& got, const Answer& want) {
  auto field = [](const char* name, auto g, auto w) {
    return std::string(name) + " " + std::to_string(g) + " != " + std::to_string(w);
  };
  if (got.termination != want.termination) {
    return field("termination", static_cast<int>(got.termination),
                 static_cast<int>(want.termination));
  }
  if (got.rounds != want.rounds) return field("rounds", got.rounds, want.rounds);
  if (got.final_radius != want.final_radius) {
    return field("final_radius", got.final_radius, want.final_radius);
  }
  if (got.candidates_verified != want.candidates_verified) {
    return field("candidates_verified", got.candidates_verified, want.candidates_verified);
  }
  if (got.collision_increments != want.collision_increments) {
    return field("collision_increments", got.collision_increments,
                 want.collision_increments);
  }
  if (got.neighbors.size() != want.neighbors.size()) {
    return field("neighbors", got.neighbors.size(), want.neighbors.size());
  }
  for (size_t i = 0; i < want.neighbors.size(); ++i) {
    if (got.neighbors[i].id != want.neighbors[i].id) {
      return field("id at rank", got.neighbors[i].id, want.neighbors[i].id) + " (rank " +
             std::to_string(i) + ")";
    }
    // Bitwise: the contract is exactness, not closeness.
    if (got.neighbors[i].dist != want.neighbors[i].dist) {
      return field("dist at rank", got.neighbors[i].dist, want.neighbors[i].dist) +
             " (rank " + std::to_string(i) + ")";
    }
  }
  return "";
}

Answer FromEngine(const NeighborList& neighbors, const C2lshQueryStats& stats) {
  Answer a;
  a.neighbors = neighbors;
  a.termination = stats.termination;
  a.rounds = stats.rounds;
  a.final_radius = stats.final_radius;
  a.candidates_verified = stats.candidates_verified;
  a.collision_increments = stats.collision_increments;
  return a;
}

}  // namespace reference
}  // namespace c2lsh
