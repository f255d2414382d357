#include "scenario/traffic_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.h"

namespace teal::scenario {

namespace {

constexpr std::uint64_t kTagMasses = 11;
constexpr std::uint64_t kTagShiftSet = 12;
constexpr std::uint64_t kTagNoise = 13;

constexpr double kPi = 3.141592653589793238462643383279502884;

}  // namespace

void GravityTrafficConfig::validate() const {
  if (n_intervals < 1) {
    throw std::invalid_argument("GravityTrafficConfig: n_intervals must be >= 1");
  }
  if (!(mean_volume > 0.0 && std::isfinite(mean_volume))) {
    throw std::invalid_argument("GravityTrafficConfig: mean_volume must be finite and > 0");
  }
  if (!(mass_sigma >= 0.0 && std::isfinite(mass_sigma))) {
    throw std::invalid_argument("GravityTrafficConfig: mass_sigma must be finite and >= 0");
  }
  if (!(noise_sigma >= 0.0 && std::isfinite(noise_sigma))) {
    throw std::invalid_argument("GravityTrafficConfig: noise_sigma must be finite and >= 0");
  }
  if (!(diurnal_amplitude >= 0.0 && diurnal_amplitude < 1.0)) {
    throw std::invalid_argument(
        "GravityTrafficConfig: diurnal_amplitude must be in [0, 1)");
  }
  if (diurnal_period < 2) {
    throw std::invalid_argument("GravityTrafficConfig: diurnal_period must be >= 2");
  }
  if (flash.active()) {
    if (!(flash.magnitude >= 0.0)) {
      throw std::invalid_argument("FlashCrowd: magnitude must be >= 0");
    }
    if (!(flash.hot_fraction > 0.0 && flash.hot_fraction <= 1.0)) {
      throw std::invalid_argument("FlashCrowd: hot_fraction must be in (0, 1]");
    }
  }
  if (shift.active()) {
    if (!(shift.factor > 0.0)) {
      throw std::invalid_argument("DemandShift: factor must be > 0");
    }
    if (!(shift.shifted_fraction >= 0.0 && shift.shifted_fraction <= 1.0)) {
      throw std::invalid_argument("DemandShift: shifted_fraction must be in [0, 1]");
    }
  }
}

std::vector<double> gravity_node_masses(int n_nodes, const GravityTrafficConfig& cfg) {
  std::vector<double> mass(static_cast<std::size_t>(std::max(0, n_nodes)));
  util::CounterRng rng(util::Rng::mix_seed(cfg.seed, kTagMasses));
  for (auto& m : mass) m = std::exp(cfg.mass_sigma * rng.normal());
  return mass;
}

std::vector<double> gravity_base_volumes(const te::Problem& pb,
                                         const GravityTrafficConfig& cfg) {
  const auto mass = gravity_node_masses(pb.graph().num_nodes(), cfg);
  double mean_mass = 0.0;
  for (double m : mass) mean_mass += m;
  mean_mass /= std::max<std::size_t>(1, mass.size());

  const auto nd = static_cast<std::size_t>(pb.num_demands());
  std::vector<double> base(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    const auto& dem = pb.demand(static_cast<int>(d));
    base[d] = cfg.mean_volume * mass[static_cast<std::size_t>(dem.src)] *
              mass[static_cast<std::size_t>(dem.dst)] / (mean_mass * mean_mass);
  }
  return base;
}

std::vector<std::size_t> flash_hot_demands(const te::Problem& pb,
                                           const GravityTrafficConfig& cfg) {
  if (!cfg.flash.active()) return {};
  const auto base = gravity_base_volumes(pb, cfg);
  std::vector<std::size_t> order(base.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (base[a] != base[b]) return base[a] > base[b];
    return a < b;
  });
  const auto k = static_cast<std::size_t>(std::min<double>(
      static_cast<double>(base.size()),
      std::ceil(cfg.flash.hot_fraction * static_cast<double>(base.size()))));
  order.resize(k);
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<std::size_t> shift_demand_set(const te::Problem& pb,
                                          const GravityTrafficConfig& cfg) {
  if (!cfg.shift.active()) return {};
  std::vector<std::size_t> out;
  const auto nd = static_cast<std::size_t>(pb.num_demands());
  const std::uint64_t key = util::Rng::mix_seed(cfg.seed, kTagShiftSet);
  for (std::size_t d = 0; d < nd; ++d) {
    util::CounterRng rng(util::Rng::mix_seed(key, d));
    if (rng.uniform() < cfg.shift.shifted_fraction) out.push_back(d);
  }
  return out;
}

traffic::Trace generate_gravity_trace(const te::Problem& pb,
                                      const GravityTrafficConfig& cfg) {
  cfg.validate();
  const auto nd = static_cast<std::size_t>(pb.num_demands());
  const auto base = gravity_base_volumes(pb, cfg);

  // Per-demand multiplier masks for the two localized modulators.
  std::vector<char> hot(nd, 0), shifted(nd, 0);
  for (std::size_t d : flash_hot_demands(pb, cfg)) hot[d] = 1;
  for (std::size_t d : shift_demand_set(pb, cfg)) shifted[d] = 1;
  const double flash_mult = 1.0 + cfg.flash.magnitude;
  const std::uint64_t noise_key = util::Rng::mix_seed(cfg.seed, kTagNoise);

  traffic::Trace trace;
  trace.matrices.resize(static_cast<std::size_t>(cfg.n_intervals));
  for (int t = 0; t < cfg.n_intervals; ++t) {
    // Computed from t mod P so intervals one period apart share the exact
    // same double — the trace is bitwise periodic when noise is off.
    const int phase = t % cfg.diurnal_period;
    const double diurnal =
        1.0 + cfg.diurnal_amplitude *
                  std::sin(2.0 * kPi * static_cast<double>(phase) /
                           static_cast<double>(cfg.diurnal_period));
    const bool in_flash = cfg.flash.active() && t >= cfg.flash.t_start &&
                          t < cfg.flash.t_start + cfg.flash.duration;
    const bool in_shift = cfg.shift.active() && t >= cfg.shift.t_start;

    auto& tm = trace.matrices[static_cast<std::size_t>(t)];
    tm.volume.resize(nd);
    for (std::size_t d = 0; d < nd; ++d) {
      double v = base[d] * diurnal;
      if (in_flash && hot[d]) v *= flash_mult;
      if (in_shift && shifted[d]) v *= cfg.shift.factor;
      if (cfg.noise_sigma > 0.0) {
        util::CounterRng rng(util::Rng::mix_seed(
            noise_key, static_cast<std::uint64_t>(t) * nd + d));
        v *= std::exp(cfg.noise_sigma * rng.normal());
      }
      tm.volume[d] = v;
    }
  }
  return trace;
}

}  // namespace teal::scenario
