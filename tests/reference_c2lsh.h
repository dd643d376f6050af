// A deliberately naive reference C2LSH query — the oracle the round engine
// (src/core/batch.h) is checked against.
//
// It is a line-by-line transcription of DESIGN.md section 1's query
// algorithm and shares no code with the engine: no incremental intervals, no
// range deltas, no shared scans. Every round recounts every object's
// collisions from scratch off the index's base buckets — object o collides
// with query q in table i at radius R iff their level-R buckets agree
// (LevelBucket(h_i(o), R) == LevelBucket(h_i(q), R)), and in every table once
// R exceeds the radius schedule cap (the exhaustive fallback round). The
// verified set is {o : count >= l}; the round ends with T1 (k verified within
// c*R), T2 (k + beta*n verified), or exhaustion (every table's level-R
// bucket holds every live entry of the table); the answer is the k nearest
// verified objects by NeighborLess.
//
// Slow by design (O(m * n) per round): for tests only.

#pragma once
#ifndef C2LSH_TESTS_REFERENCE_C2LSH_H_
#define C2LSH_TESTS_REFERENCE_C2LSH_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/core/index.h"
#include "src/vector/dataset.h"
#include "src/vector/types.h"

namespace c2lsh {
namespace reference {

/// What the oracle computes for one query — the fields an engine answer must
/// match exactly.
struct Answer {
  NeighborList neighbors;
  Termination termination = Termination::kNone;
  uint64_t rounds = 0;
  long long final_radius = 0;
  uint64_t candidates_verified = 0;
  uint64_t collision_increments = 0;
};

/// The c-k-ANN answer for `query` over `index`'s live entries, verified
/// against `data`. `filter` (empty = accept all) gates verification: a
/// rejected object is never verified and does not count toward T2.
Answer Query(const C2lshIndex& index, const Dataset& data, const float* query, size_t k,
             const std::function<bool(ObjectId)>& filter = {});

/// Empty when `got` and `want` agree bit for bit on every Answer field,
/// otherwise a description of the first difference.
std::string Diff(const Answer& got, const Answer& want);

/// An engine answer in oracle form.
Answer FromEngine(const NeighborList& neighbors, const C2lshQueryStats& stats);

}  // namespace reference
}  // namespace c2lsh

#endif  // C2LSH_TESTS_REFERENCE_C2LSH_H_
