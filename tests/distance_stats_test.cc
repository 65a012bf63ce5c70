#include "stats/distance_stats.h"

#include <cmath>
#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mqa {
namespace {

// Monte Carlo reference for squared-distance moments between two boxes.
struct McMoments {
  double mean_sq;
  double var_sq;
  double mean_dist;
};

McMoments MonteCarlo(const BBox& a, const BBox& b, int n, uint64_t seed) {
  Rng rng(seed);
  double sum_sq = 0.0;
  double sum_4 = 0.0;
  double sum_d = 0.0;
  for (int i = 0; i < n; ++i) {
    const Point pa{rng.Uniform(a.lo().x, a.hi().x),
                   rng.Uniform(a.lo().y, a.hi().y)};
    const Point pb{rng.Uniform(b.lo().x, b.hi().x),
                   rng.Uniform(b.lo().y, b.hi().y)};
    const double d2 = SquaredDistance(pa, pb);
    sum_sq += d2;
    sum_4 += d2 * d2;
    sum_d += std::sqrt(d2);
  }
  McMoments out;
  out.mean_sq = sum_sq / n;
  out.var_sq = sum_4 / n - out.mean_sq * out.mean_sq;
  out.mean_dist = sum_d / n;
  return out;
}

TEST(DistanceStatsTest, PointToPointExact) {
  const BBox a = BBox::FromPoint({0.1, 0.1});
  const BBox b = BBox::FromPoint({0.4, 0.5});
  const auto m = ComputeSquaredDistanceMoments(a, b);
  EXPECT_NEAR(m.mean, 0.25, 1e-12);
  EXPECT_NEAR(m.variance, 0.0, 1e-12);
  const Uncertain d = DistanceBetween(a, b);
  EXPECT_TRUE(d.IsFixed());
  EXPECT_DOUBLE_EQ(d.mean(), 0.5);
}

TEST(DistanceStatsTest, SquaredMomentsMatchMonteCarloBoxBox) {
  const BBox a({0.1, 0.2}, {0.3, 0.4});
  const BBox b({0.6, 0.5}, {0.9, 0.8});
  const auto exact = ComputeSquaredDistanceMoments(a, b);
  const auto mc = MonteCarlo(a, b, 400000, 99);
  EXPECT_NEAR(exact.mean, mc.mean_sq, 3e-3 * exact.mean);
  EXPECT_NEAR(exact.variance, mc.var_sq, 3e-2 * exact.variance);
}

TEST(DistanceStatsTest, SquaredMomentsMatchMonteCarloPointBox) {
  const BBox a = BBox::FromPoint({0.2, 0.2});
  const BBox b({0.5, 0.5}, {0.8, 0.9});
  const auto exact = ComputeSquaredDistanceMoments(a, b);
  const auto mc = MonteCarlo(a, b, 400000, 7);
  EXPECT_NEAR(exact.mean, mc.mean_sq, 3e-3 * exact.mean);
  EXPECT_NEAR(exact.variance, mc.var_sq, 3e-2 * (exact.variance + 1e-6));
}

TEST(DistanceStatsTest, SquaredMomentsOverlappingBoxes) {
  const BBox a({0.2, 0.2}, {0.6, 0.6});
  const BBox b({0.3, 0.3}, {0.7, 0.7});
  const auto exact = ComputeSquaredDistanceMoments(a, b);
  const auto mc = MonteCarlo(a, b, 400000, 13);
  EXPECT_NEAR(exact.mean, mc.mean_sq, 5e-3 * exact.mean);
  EXPECT_NEAR(exact.variance, mc.var_sq, 5e-2 * exact.variance);
}

TEST(DistanceStatsTest, DeltaMethodDistanceWithinBoundsAndClose) {
  const BBox a({0.1, 0.1}, {0.2, 0.3});
  const BBox b({0.7, 0.6}, {0.8, 0.9});
  const Uncertain d = DistanceBetween(a, b);
  EXPECT_DOUBLE_EQ(d.lb(), a.MinDistance(b));
  EXPECT_DOUBLE_EQ(d.ub(), a.MaxDistance(b));
  EXPECT_GE(d.mean(), d.lb());
  EXPECT_LE(d.mean(), d.ub());
  const auto mc = MonteCarlo(a, b, 400000, 21);
  // Delta method: sqrt(E Z^2) >= E Z (Jensen) but close for separated
  // boxes.
  EXPECT_NEAR(d.mean(), mc.mean_dist, 0.02 * mc.mean_dist);
}

TEST(DistanceStatsTest, IdenticalBoxesHaveZeroLowerBound) {
  const BBox a({0.4, 0.4}, {0.6, 0.6});
  const Uncertain d = DistanceBetween(a, a);
  EXPECT_DOUBLE_EQ(d.lb(), 0.0);
  EXPECT_GT(d.mean(), 0.0);  // expected distance of two uniforms is > 0
  EXPECT_GT(d.variance(), 0.0);
}

TEST(DistanceStatsTest, VarianceNonNegativeOnGridSweep) {
  // Sweep box positions; Var(Z^2) must never go negative (Eq. 3 involves
  // cancellation).
  for (double x = 0.0; x <= 0.8; x += 0.2) {
    for (double y = 0.0; y <= 0.8; y += 0.2) {
      const BBox a({x, y}, {x + 0.2, y + 0.2});
      const BBox b({0.4, 0.4}, {0.6, 0.6});
      const auto m = ComputeSquaredDistanceMoments(a, b);
      EXPECT_GE(m.variance, 0.0) << "x=" << x << " y=" << y;
    }
  }
}

TEST(DistanceStatsTest, AnalyticUnitSquareMean) {
  // Two independent uniforms on [0,1]^2: E(Z^2) = 2 * (2 * Var(U)) = 1/3.
  const BBox u({0.0, 0.0}, {1.0, 1.0});
  const auto m = ComputeSquaredDistanceMoments(u, u);
  EXPECT_NEAR(m.mean, 1.0 / 3.0, 1e-12);
}

// One random endpoint box: a point, a full box, a box degenerate on one
// axis only, or a kernel box centered near the border so KernelBox clips
// it to [0,1]^2.
BBox RandomEndpointBox(Rng* rng) {
  const double x = rng->Uniform(), y = rng->Uniform();
  const double w = rng->Uniform(0.0, 0.3), h = rng->Uniform(0.0, 0.3);
  switch (rng->UniformInt(0, 4)) {
    case 0:
      return BBox::FromPoint({x, y});
    case 1:
      return BBox({x, y}, {x + w, y + h});
    case 2:
      return BBox({x, y}, {x, y + h});
    case 3:
      return BBox({x, y}, {x + w, y});
    default:
      return BBox::KernelBox({rng->Bernoulli(0.5) ? x * 0.1 : 1.0 - x * 0.1,
                              rng->Uniform()},
                             w, h);
  }
}

// A partner for `w`: independent, identical, touching along x, or
// overlapping it.
BBox RandomPartnerBox(const BBox& w, Rng* rng) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return w;
    case 1: {
      const double touch_x = w.hi().x;
      const double y = rng->Uniform(w.lo().y - 0.1, w.hi().y);
      return BBox({touch_x, y},
                  {touch_x + rng->Uniform(0.0, 0.2),
                   y + rng->Uniform(0.0, 0.2)});
    }
    case 2: {
      const double dx = rng->Uniform(0.0, 1.0) * w.WidthX();
      const double dy = rng->Uniform(0.0, 1.0) * w.WidthY();
      return BBox({w.lo().x + dx, w.lo().y + dy},
                  {w.hi().x + dx, w.hi().y + dy});
    }
    default:
      return RandomEndpointBox(rng);
  }
}

template <typename T>
bool SameBits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

TEST(DistanceStatsTest, HoistedMomentsAreBitIdentical) {
  // The pool build computes each box's moment table once and reuses it
  // across pairs; that must not change a single bit of any pair's cost.
  Rng rng(20170419);
  int points = 0, mixed = 0, boxes = 0;
  for (int n = 0; n < 20000; ++n) {
    BBox w = RandomEndpointBox(&rng);
    BBox t = RandomPartnerBox(w, &rng);
    if (rng.Bernoulli(0.5)) std::swap(w, t);
    points += w.IsPoint() && t.IsPoint();
    mixed += w.IsPoint() != t.IsPoint();
    boxes += !w.IsPoint() && !t.IsPoint();

    const BoxMoments wm = ComputeBoxMoments(w);
    const BoxMoments tm = ComputeBoxMoments(t);

    const SquaredDistanceMoments sq_two = ComputeSquaredDistanceMoments(w, t);
    const SquaredDistanceMoments sq_hoisted =
        ComputeSquaredDistanceMoments(wm, tm);
    ASSERT_TRUE(SameBits(sq_two.mean, sq_hoisted.mean)) << w << " " << t;
    ASSERT_TRUE(SameBits(sq_two.variance, sq_hoisted.variance))
        << w << " " << t;

    const Uncertain d_two = DistanceBetween(w, t);
    const Uncertain d_hoisted = DistanceBetween(w, wm, t, tm);
    ASSERT_TRUE(SameBits(d_two.mean(), d_hoisted.mean())) << w << " " << t;
    ASSERT_TRUE(SameBits(d_two.variance(), d_hoisted.variance()))
        << w << " " << t;
    ASSERT_TRUE(SameBits(d_two.lb(), d_hoisted.lb())) << w << " " << t;
    ASSERT_TRUE(SameBits(d_two.ub(), d_hoisted.ub())) << w << " " << t;
  }
  // The sweep reached every endpoint combination.
  EXPECT_GT(points, 100);
  EXPECT_GT(mixed, 1000);
  EXPECT_GT(boxes, 1000);
}

}  // namespace
}  // namespace mqa
