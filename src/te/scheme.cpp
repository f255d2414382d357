#include "te/scheme.h"

#include "util/timer.h"

namespace teal::te {

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::f32: return "f32";
    default: return "f64";
  }
}

void Scheme::solve_into(const Problem& pb, const TrafficMatrix& tm, Allocation& out) {
  out = solve(pb, tm);
}

BatchSolve Scheme::solve_batch(const Problem& pb, std::span<const TrafficMatrix> tms) {
  util::Timer wall;
  BatchSolve out;
  out.allocs.resize(tms.size());
  out.solve_seconds.resize(tms.size());
  for (std::size_t t = 0; t < tms.size(); ++t) {
    solve_into(pb, tms[t], out.allocs[t]);
    out.solve_seconds[t] = last_solve_seconds();
  }
  out.wall_seconds = wall.seconds();
  return out;
}

BatchSolve solve_batch_sequential(Scheme& scheme, const Problem& pb,
                                  std::span<const TrafficMatrix> tms) {
  return scheme.Scheme::solve_batch(pb, tms);
}

}  // namespace teal::te
