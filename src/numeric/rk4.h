// Classic fixed-step Runge-Kutta 4 over a fixed-size state.
//
// The cycle-accurate engines integrate small non-stiff macro-models
// (3-6 states) for tens of thousands of RF cycles at ~64 steps per cycle;
// one header template serves them all, with the derivative inlined at the
// call site and no heap traffic per step.
#pragma once

#include <array>
#include <cstddef>

namespace lcosc {

// Advance `s` by one RK4 step of size `dt`.  `f(x)` returns dx/dt as a
// std::array<double, N>; it is called exactly four times, in k1..k4
// order.  The arithmetic order is part of the contract: the engines'
// golden traces depend on every bit of it.
template <std::size_t N, typename Derivative>
void rk4_step(std::array<double, N>& s, double dt, Derivative&& f) {
  using State = std::array<double, N>;
  const State k1 = f(s);
  State mid{};
  for (std::size_t i = 0; i < N; ++i) mid[i] = s[i] + 0.5 * dt * k1[i];
  const State k2 = f(mid);
  for (std::size_t i = 0; i < N; ++i) mid[i] = s[i] + 0.5 * dt * k2[i];
  const State k3 = f(mid);
  State end{};
  for (std::size_t i = 0; i < N; ++i) end[i] = s[i] + dt * k3[i];
  const State k4 = f(end);
  for (std::size_t i = 0; i < N; ++i) {
    s[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
  }
}

}  // namespace lcosc
