// traffic_model.h — composable adversarial traffic (scenario factory, part b).
//
// traffic::generate_trace reproduces the *paper's* trace statistics (88.4%
// top-10% share, AR(1) jitter) and is deliberately organic. This generator
// is the complementary adversarial one: a gravity-model baseline with
// explicitly composable multiplicative modulators —
//
//   volume(t, d) = base(d) · diurnal(t) · flash(t, d) · shift(t, d) · noise(t, d)
//
//   * base      — gravity product of lognormal node masses (exposed via
//                 gravity_node_masses so tests can verify the marginals
//                 exactly),
//   * diurnal   — 1 + A·sin(2π·(t mod P)/P): computed from t mod P, so the
//                 trace is bitwise periodic when noise is off,
//   * flash     — a flash crowd: the top hot_fraction of demands by base
//                 volume scale by (1 + magnitude) inside [t_start,
//                 t_start + duration) and are untouched outside it,
//   * shift     — a sustained demand shift: a seed-keyed subset of demands
//                 scales by `factor` from t_start onward,
//   * noise     — optional lognormal jitter keyed per (t, d).
//
// Every factor is strictly positive, so demands are nonnegative by
// construction. All draws are util::CounterRng streams keyed by (seed,
// purpose, item): the trace is a pure function of (Problem, config) —
// byte-identical regeneration, order- and thread-independent.
#pragma once

#include <cstdint>
#include <vector>

#include "te/problem.h"
#include "traffic/traffic.h"

namespace teal::scenario {

struct FlashCrowd {
  int t_start = -1;           // first spiked interval (< 0 = off)
  int duration = 0;           // spiked intervals (spike covers [t_start, t_start+duration))
  double magnitude = 0.0;     // hot demands scale by (1 + magnitude); >= 0
  double hot_fraction = 0.05; // fraction of demands spiked (top by base volume)

  bool active() const { return t_start >= 0 && duration > 0 && magnitude > 0.0; }
};

struct DemandShift {
  int t_start = -1;               // first shifted interval (< 0 = off)
  double factor = 1.0;            // shifted demands scale by this; > 0
  double shifted_fraction = 0.3;  // seed-keyed fraction of demands shifted

  bool active() const { return t_start >= 0 && factor != 1.0; }
};

struct GravityTrafficConfig {
  std::uint64_t seed = 7;
  int n_intervals = 64;
  double mean_volume = 10.0;  // mean of the gravity base volumes
  double mass_sigma = 1.0;    // lognormal node-mass spread (0 = uniform masses)
  double noise_sigma = 0.0;   // per-(t,d) lognormal jitter (0 = none)
  double diurnal_amplitude = 0.0;  // in [0, 1)
  int diurnal_period = 288;        // intervals per cycle (5-min intervals/day)
  FlashCrowd flash;
  DemandShift shift;

  // Throws std::invalid_argument on out-of-range values (amplitude outside
  // [0, 1), nonpositive or infinite volumes, infinite spreads, nonpositive
  // periods, bad fractions, ...).
  void validate() const;
};

// The lognormal node masses the gravity base uses (pure function of seed).
std::vector<double> gravity_node_masses(int n_nodes, const GravityTrafficConfig& cfg);

// Gravity base volume per demand: mean_volume * mass[src] * mass[dst],
// normalized by the squared mean mass so the configured mean is the actual
// scale. Exact — tests compare trace entries against these products.
std::vector<double> gravity_base_volumes(const te::Problem& pb,
                                         const GravityTrafficConfig& cfg);

// Indices of the flash crowd's hot demands: top ceil(hot_fraction * n) by
// base volume, ties broken by index (deterministic).
std::vector<std::size_t> flash_hot_demands(const te::Problem& pb,
                                           const GravityTrafficConfig& cfg);

// Seed-keyed shifted-demand subset of the sustained shift.
std::vector<std::size_t> shift_demand_set(const te::Problem& pb,
                                          const GravityTrafficConfig& cfg);

// Generates the composed trace (validates cfg first).
traffic::Trace generate_gravity_trace(const te::Problem& pb,
                                      const GravityTrafficConfig& cfg);

}  // namespace teal::scenario
