#ifndef MQA_STATS_DISTANCE_STATS_H_
#define MQA_STATS_DISTANCE_STATS_H_

#include "geo/bbox.h"
#include "stats/uncertain.h"

namespace mqa {

/// Mean and variance of the squared Euclidean distance
/// Z^2 = sum_r (W[r] - T[r])^2 between two independent points W, T that
/// are uniformly distributed in the boxes `w` and `t` respectively.
/// Implements the paper's Eqs. (2)-(5) exactly, via closed-form raw
/// moments of the uniform distribution. Degenerate boxes (points) are
/// handled uniformly: their moments collapse to powers of the coordinate.
struct SquaredDistanceMoments {
  double mean = 0.0;      // E(Z^2)
  double variance = 0.0;  // Var(Z^2)
};

/// The per-box half of Eqs. (2)-(5): the raw moments E(X^k), k = 1..4, of
/// a box's uniform x and y coordinates. They depend on the box alone, so
/// a pair-pool build computes them once per worker and once per task and
/// leaves only arithmetic to each pair.
struct BoxMoments {
  struct Axis {
    double m1, m2, m3, m4;
  };
  Axis x, y;
};

BoxMoments ComputeBoxMoments(const BBox& box);

/// The per-pair half of Eqs. (2)-(5): pure arithmetic over the two boxes'
/// moment tables. Bit-identical to the two-box overload below, which
/// computes both tables and calls this.
SquaredDistanceMoments ComputeSquaredDistanceMoments(const BoxMoments& w,
                                                     const BoxMoments& t);

SquaredDistanceMoments ComputeSquaredDistanceMoments(const BBox& w,
                                                     const BBox& t);

/// Distribution summary of the Euclidean distance Z = dist(W, T) between
/// uniform boxes, given each box's precomputed moment table.
///
/// The paper derives only E(Z^2)/Var(Z^2); comparisons (Eq. 8) and the
/// chance constraint (Eq. 9) need moments of Z itself. We map by the delta
/// method: E(Z) ~= sqrt(E(Z^2)), Var(Z) ~= Var(Z^2) / (4 E(Z^2)), and take
/// *hard* support bounds from the boxes' min/max distance (these bounds
/// are exact, so the Lemma 4.1 dominance pruning remains sound). Two
/// points short-circuit to a fixed distance without reading the moments.
Uncertain DistanceBetween(const BBox& w, const BoxMoments& wm, const BBox& t,
                          const BoxMoments& tm);

/// The same summary when no moment tables are at hand. Two points return
/// before any moments are computed; otherwise both tables are computed
/// and the four-argument overload runs, so results are bit-identical.
Uncertain DistanceBetween(const BBox& w, const BBox& t);

}  // namespace mqa

#endif  // MQA_STATS_DISTANCE_STATS_H_
