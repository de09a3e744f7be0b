// N mutually coupled coils: the general magnetics behind the sensor
// (excitation coil + receiving coils + the redundant partner's coil).
//
//   v = L di/dt   with   L[i][j] = k_ij sqrt(L_i L_j)
//
// The class validates physical realizability (symmetric, positive
// definite L) and precomputes the inverse so system models can map coil
// voltages to current derivatives each integration step in O(N^2).
#pragma once

#include <span>
#include <vector>

#include "numeric/matrix.h"

namespace lcosc::tank {

class InductanceMatrix {
 public:
  // Self inductances [H] and the symmetric coupling-factor matrix k
  // (diagonal ignored, |k_ij| < 1).  Throws ConfigError if the resulting
  // inductance matrix is not positive definite (unphysical couplings).
  InductanceMatrix(std::vector<double> self_inductances, const Matrix& coupling);

  // Convenience: N coils with one common pairwise coupling factor.
  static InductanceMatrix uniform(std::vector<double> self_inductances, double coupling);

  [[nodiscard]] std::size_t coil_count() const { return self_.size(); }
  [[nodiscard]] double self_inductance(std::size_t i) const { return self_[i]; }
  [[nodiscard]] double mutual(std::size_t i, std::size_t j) const { return l_(i, j); }

  // di/dt for the given coil voltages, written to `out`; both spans hold
  // coil_count() values.  Does not allocate (the integration hot path).
  void current_derivatives(std::span<const double> voltages, std::span<double> out) const;
  // Allocating convenience form of the above.
  [[nodiscard]] Vector current_derivatives(const Vector& voltages) const;

  // Magnetic energy 1/2 i^T L i for the given coil currents.
  [[nodiscard]] double stored_energy(const Vector& currents) const;

  // Flux linkage of each coil for the given currents (lambda = L i).
  [[nodiscard]] Vector flux_linkage(const Vector& currents) const;

 private:
  std::vector<double> self_;
  Matrix l_;      // full inductance matrix
  Matrix l_inv_;  // its inverse
};

}  // namespace lcosc::tank
