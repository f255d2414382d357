#include "lp/pdhg.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace teal::lp {

namespace {

// Projects x onto the feasible region by scaling every variable through a
// violated row with that row's deficit ratio. A >= 0 makes this sound; a few
// rounds suffice in practice and the loop exits early when feasible.
void repair(const SparseMatrix& a, const std::vector<double>& b, std::vector<double>& x,
            std::vector<double>& scratch_rows, std::vector<double>& scratch_cols) {
  const int m = a.rows();
  const int n = a.cols();
  for (int round = 0; round < 6; ++round) {
    a.multiply(x, scratch_rows);
    bool violated = false;
    for (int i = 0; i < m; ++i) {
      double ax = scratch_rows[static_cast<std::size_t>(i)];
      double cap = b[static_cast<std::size_t>(i)];
      scratch_rows[static_cast<std::size_t>(i)] =
          (ax > cap * (1.0 + 1e-12)) ? (cap > 0.0 ? cap / ax : 0.0) : 1.0;
      if (scratch_rows[static_cast<std::size_t>(i)] < 1.0) violated = true;
    }
    if (!violated) return;
    // Column factor = min over its rows' factors.
    std::fill(scratch_cols.begin(), scratch_cols.end(), 1.0);
    for (int i = 0; i < m; ++i) {
      double f = scratch_rows[static_cast<std::size_t>(i)];
      if (f >= 1.0) continue;
      auto row = a.row(i);
      for (std::size_t k = 0; k < row.size; ++k) {
        auto j = static_cast<std::size_t>(row.cols[k]);
        scratch_cols[j] = std::min(scratch_cols[j], f);
      }
    }
    for (int j = 0; j < n; ++j) {
      x[static_cast<std::size_t>(j)] *= scratch_cols[static_cast<std::size_t>(j)];
    }
  }
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

// Greedy primal polish for packing LPs: after repair, walk the variables in
// decreasing objective order and raise each as far as its rows' remaining
// slack allows. Turns a mid-convergence PDHG iterate into a high-quality
// feasible point, which lets the duality-gap check terminate much earlier.
void greedy_fill(const SparseMatrix& a, const std::vector<double>& b,
                 const std::vector<double>& c, const std::vector<double>& u,
                 std::vector<double>& x, std::vector<double>& slack,
                 const std::vector<int>& order,
                 const std::vector<std::vector<std::pair<int, double>>>& col_entries) {
  a.multiply(x, slack);
  for (std::size_t i = 0; i < slack.size(); ++i) {
    slack[i] = std::max(0.0, b[i] - slack[i]);
  }
  for (int j : order) {
    auto js = static_cast<std::size_t>(j);
    double room = u[js] - x[js];
    if (room <= 0.0 || c[js] <= 0.0) continue;
    for (const auto& [row, coef] : col_entries[js]) {
      if (coef > 0.0) room = std::min(room, slack[static_cast<std::size_t>(row)] / coef);
      if (room <= 0.0) break;
    }
    if (room <= 0.0) continue;
    x[js] += room;
    for (const auto& [row, coef] : col_entries[js]) {
      auto rs = static_cast<std::size_t>(row);
      slack[rs] = std::max(0.0, slack[rs] - coef * room);
    }
  }
}

}  // namespace

PdhgResult pdhg_packing(const SparseMatrix& a, const std::vector<double>& b,
                        const std::vector<double>& c, const std::vector<double>& u,
                        const PdhgOptions& opt, const std::vector<double>* warm_start) {
  const int m = a.rows();
  const int n = a.cols();
  if (static_cast<int>(b.size()) != m || static_cast<int>(c.size()) != n ||
      static_cast<int>(u.size()) != n) {
    throw std::invalid_argument("pdhg_packing: size mismatch");
  }

  // Diagonal preconditioners. Empty rows/cols get harmless unit steps.
  std::vector<double> tau(static_cast<std::size_t>(n), 1.0);
  std::vector<double> sigma(static_cast<std::size_t>(m), 1.0);
  for (int j = 0; j < n; ++j) {
    double s = a.col_abs_sum(j);
    tau[static_cast<std::size_t>(j)] = opt.step_scale / std::max(1e-12, s);
  }
  for (int i = 0; i < m; ++i) {
    double s = a.row_abs_sum(i);
    sigma[static_cast<std::size_t>(i)] = opt.step_scale / std::max(1e-12, s);
  }

  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  if (warm_start) {
    x = *warm_start;
    for (int j = 0; j < n; ++j) {
      x[static_cast<std::size_t>(j)] =
          std::clamp(x[static_cast<std::size_t>(j)], 0.0, u[static_cast<std::size_t>(j)]);
    }
  }
  std::vector<double> y(static_cast<std::size_t>(m), 0.0);
  std::vector<double> x_prev = x;
  std::vector<double> aty(static_cast<std::size_t>(n), 0.0);
  std::vector<double> ax(static_cast<std::size_t>(m), 0.0);
  std::vector<double> x_bar(static_cast<std::size_t>(n), 0.0);
  std::vector<double> scratch_rows(static_cast<std::size_t>(m), 0.0);
  std::vector<double> scratch_cols(static_cast<std::size_t>(n), 0.0);

  PdhgResult res;
  res.dual_bound = std::numeric_limits<double>::infinity();
  double best_primal = -std::numeric_limits<double>::infinity();
  std::vector<double> best_x = x;
  std::vector<double> primal_history;

  // Structures for the greedy primal polish (objective-descending order and
  // per-column row entries).
  std::vector<int> fill_order(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) fill_order[static_cast<std::size_t>(j)] = j;
  std::sort(fill_order.begin(), fill_order.end(),
            [&](int p, int q) { return c[static_cast<std::size_t>(p)] > c[static_cast<std::size_t>(q)]; });
  std::vector<std::vector<std::pair<int, double>>> col_entries(static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    auto row = a.row(i);
    for (std::size_t k2 = 0; k2 < row.size; ++k2) {
      col_entries[static_cast<std::size_t>(row.cols[k2])].emplace_back(i, row.vals[k2]);
    }
  }

  for (int it = 1; it <= opt.max_iterations; ++it) {
    res.iterations = it;
    // Primal ascent step on the Lagrangian (maximization problem).
    a.multiply_transpose(y, aty);
    x_prev.swap(x);
    for (int j = 0; j < n; ++j) {
      auto js = static_cast<std::size_t>(j);
      double g = c[js] - aty[js];
      x[js] = std::clamp(x_prev[js] + tau[js] * g, 0.0, u[js]);
      x_bar[js] = 2.0 * x[js] - x_prev[js];
    }
    // Dual step.
    a.multiply(x_bar, ax);
    for (int i = 0; i < m; ++i) {
      auto is = static_cast<std::size_t>(i);
      y[is] = std::max(0.0, y[is] + sigma[is] * (ax[is] - b[is]));
    }

    if (it % opt.check_every == 0 || it == opt.max_iterations) {
      // Dual bound: for y >= 0, max_{0<=x<=u} L(x,y) = bᵀy + Σ u_j (c - Aᵀy)_j⁺.
      a.multiply_transpose(y, aty);
      double dual = dot(b, y);
      for (int j = 0; j < n; ++j) {
        auto js = static_cast<std::size_t>(j);
        dual += u[js] * std::max(0.0, c[js] - aty[js]);
      }
      res.dual_bound = std::min(res.dual_bound, dual);

      // Feasible primal value via repair + greedy polish.
      std::vector<double> xf = x;
      repair(a, b, xf, scratch_rows, scratch_cols);
      greedy_fill(a, b, c, u, xf, scratch_rows, fill_order, col_entries);
      double primal = dot(c, xf);
      if (primal > best_primal) {
        best_primal = primal;
        best_x = std::move(xf);
      }
      double gap = res.dual_bound - best_primal;
      if (gap <= opt.rel_gap_tol * std::max(1.0, std::abs(res.dual_bound))) {
        res.converged = true;
        break;
      }
      // Primal-stall termination. Not convergence: the dual bound may still
      // be far above the primal value, so `converged` stays false.
      primal_history.push_back(best_primal);
      if (opt.stall_checks > 0 &&
          static_cast<int>(primal_history.size()) > opt.stall_checks) {
        double past = primal_history[primal_history.size() -
                                     static_cast<std::size_t>(opt.stall_checks) - 1];
        if (best_primal - past <= opt.stall_rel * std::max(1.0, std::abs(best_primal))) {
          break;
        }
      }
    }
  }

  res.x = std::move(best_x);
  res.y = std::move(y);
  res.objective = best_primal;
  return res;
}

}  // namespace teal::lp
