// Tests for the fixed-step RK4 template: accuracy and convergence order on
// closed-form problems, energy behaviour on the harmonic oscillator (the
// core of the tank models), and the stage order the engines' golden
// traces rely on.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "common/constants.h"
#include "numeric/rk4.h"

namespace lcosc {
namespace {

using State1 = std::array<double, 1>;
using State2 = std::array<double, 2>;

// dx/dt = -x, x(0)=1 -> x(t) = exp(-t), integrated over [0, 1].
double decay_error(int steps) {
  State1 x{1.0};
  const double h = 1.0 / steps;
  for (int i = 0; i < steps; ++i) {
    rk4_step(x, h, [](const State1& s) { return State1{-s[0]}; });
  }
  return std::abs(x[0] - std::exp(-1.0));
}

TEST(Rk4, ExponentialDecayAccuracy) { EXPECT_LT(decay_error(1000), 1e-10); }

TEST(Rk4, FourthOrderConvergence) {
  // Halving the step should cut the error ~16x for a 4th order method.
  EXPECT_NEAR(decay_error(100) / decay_error(200), 16.0, 3.0);
}

TEST(Rk4, HarmonicOscillatorEnergyStable) {
  // x'' = -w^2 x as a 2-state system: 100 periods at 200 steps/period.
  const double w = kTwoPi * 1.0;  // 1 Hz
  State2 x{1.0, 0.0};
  for (int i = 0; i < 100 * 200; ++i) {
    rk4_step(x, 1.0 / 200, [w](const State2& s) { return State2{s[1], -w * w * s[0]}; });
  }
  const double energy = w * w * x[0] * x[0] + x[1] * x[1];
  EXPECT_NEAR(energy, w * w, w * w * 1e-4);
}

TEST(Rk4, StagesFollowTheClassicTableau) {
  // Four derivative calls, in k1..k4 order, at s, s + dt/2 k1, s + dt/2 k2
  // and s + dt k3; then the weighted update.  Compared with exact
  // equality: the engines' byte-identical results depend on this order.
  const double dt = 0.1;
  const State2 s0{0.3, -1.7};
  auto f = [](const State2& s) { return State2{s[1] * s[0], std::sin(s[0]) - s[1]}; };
  std::vector<State2> seen;
  State2 s = s0;
  rk4_step(s, dt, [&](const State2& x) {
    seen.push_back(x);
    return f(x);
  });

  ASSERT_EQ(seen.size(), 4u);
  const State2 k1 = f(s0);
  const State2 a2{s0[0] + 0.5 * dt * k1[0], s0[1] + 0.5 * dt * k1[1]};
  const State2 k2 = f(a2);
  const State2 a3{s0[0] + 0.5 * dt * k2[0], s0[1] + 0.5 * dt * k2[1]};
  const State2 k3 = f(a3);
  const State2 a4{s0[0] + dt * k3[0], s0[1] + dt * k3[1]};
  const State2 k4 = f(a4);
  EXPECT_EQ(seen[0], s0);
  EXPECT_EQ(seen[1], a2);
  EXPECT_EQ(seen[2], a3);
  EXPECT_EQ(seen[3], a4);
  for (std::size_t i = 0; i < 2; ++i) {
    const double expected = s0[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    EXPECT_EQ(s[i], expected) << "state " << i;
  }
}

}  // namespace
}  // namespace lcosc
