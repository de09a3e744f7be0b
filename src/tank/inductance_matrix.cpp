#include "tank/inductance_matrix.h"

#include <cmath>

#include "common/error.h"
#include "numeric/lu.h"

namespace lcosc::tank {

InductanceMatrix::InductanceMatrix(std::vector<double> self_inductances,
                                   const Matrix& coupling)
    : self_(std::move(self_inductances)) {
  const std::size_t n = self_.size();
  LCOSC_REQUIRE(n >= 1, "need at least one coil");
  LCOSC_REQUIRE(coupling.rows() == n && coupling.cols() == n,
                "coupling matrix size must match the coil count");
  for (const double l : self_) LCOSC_REQUIRE(l > 0.0, "self inductances must be positive");

  l_.resize(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    l_(i, i) = self_[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      LCOSC_REQUIRE(std::abs(coupling(i, j) - coupling(j, i)) < 1e-12,
                    "coupling matrix must be symmetric");
      LCOSC_REQUIRE(std::abs(coupling(i, j)) < 1.0, "coupling magnitudes must be below 1");
      const double m = coupling(i, j) * std::sqrt(self_[i] * self_[j]);
      l_(i, j) = m;
      l_(j, i) = m;
    }
  }

  // Positive definiteness via Cholesky-style elimination: all pivots of
  // the symmetric LU must be positive.
  Matrix chol = l_;
  for (std::size_t k = 0; k < n; ++k) {
    LCOSC_REQUIRE(chol(k, k) > 0.0,
                  "inductance matrix is not positive definite (unphysical couplings)");
    for (std::size_t i = k + 1; i < n; ++i) {
      const double factor = chol(i, k) / chol(k, k);
      for (std::size_t j = k; j < n; ++j) chol(i, j) -= factor * chol(k, j);
    }
  }

  // Invert via LU column solves.
  const LuDecomposition lu(l_);
  LCOSC_REQUIRE(!lu.singular(), "inductance matrix is singular");
  l_inv_.resize(n, n);
  Vector unit(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    unit.assign(n, 0.0);
    unit[c] = 1.0;
    const Vector col = lu.solve(unit);
    for (std::size_t r = 0; r < n; ++r) l_inv_(r, c) = col[r];
  }
}

InductanceMatrix InductanceMatrix::uniform(std::vector<double> self_inductances,
                                           double coupling) {
  const std::size_t n = self_inductances.size();
  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) k(i, j) = coupling;
    }
  }
  return InductanceMatrix(std::move(self_inductances), k);
}

void InductanceMatrix::current_derivatives(std::span<const double> voltages,
                                           std::span<double> out) const {
  const std::size_t n = self_.size();
  LCOSC_REQUIRE(voltages.size() == n && out.size() == n, "voltage vector size mismatch");
  for (std::size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < n; ++c) acc += l_inv_(r, c) * voltages[c];
    out[r] = acc;
  }
}

Vector InductanceMatrix::current_derivatives(const Vector& voltages) const {
  Vector di(self_.size());
  current_derivatives(voltages, di);
  return di;
}

double InductanceMatrix::stored_energy(const Vector& currents) const {
  LCOSC_REQUIRE(currents.size() == self_.size(), "current vector size mismatch");
  const Vector li = l_.multiply(currents);
  return 0.5 * dot(currents, li);
}

Vector InductanceMatrix::flux_linkage(const Vector& currents) const {
  LCOSC_REQUIRE(currents.size() == self_.size(), "current vector size mismatch");
  return l_.multiply(currents);
}

}  // namespace lcosc::tank
