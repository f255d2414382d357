#include "nn/module.h"

#include <cmath>
#include <fstream>
#include <stdexcept>

namespace teal::nn {

void xavier_init(Mat& w, util::Rng& rng) {
  const double bound = std::sqrt(6.0 / static_cast<double>(w.rows() + w.cols()));
  for (double& x : w.data()) x = rng.uniform(-bound, bound);
}

Linear::Linear(int in, int out, util::Rng& rng) : weight_(out, in), bias_(1, out) {
  xavier_init(weight_.w, rng);
}

void Linear::forward(const Mat& x, Mat& y) const {
  linear_forward(x, weight_.w, bias_.w.data(), y);
}

void Linear::pack(PackedLinear& dst) const {
  pack_weights(weight_.w, dst.w);
  dst.b.assign(bias_.w.data().begin(), bias_.w.data().end());
}

void pack_layers(std::span<const Linear> src, std::vector<PackedLinear>& dst) {
  dst.resize(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) src[i].pack(dst[i]);
}

void Linear::backward(const Mat& x, const Mat& gy, Mat& gx) {
  linear_backward(x, weight_.w, gy, gx, weight_.g, bias_.g.data());
}

void Linear::backward_acc(const Mat& x, const Mat& gy, Mat& gx, Mat& gw, Mat& gb) const {
  linear_backward(x, weight_.w, gy, gx, gw, gb.data());
}

void GradAccum::prepare(const std::vector<Param*>& params) {
  if (g_.size() == params.size()) {
    bool match = true;
    for (std::size_t i = 0; i < g_.size(); ++i) {
      match = match && g_[i].same_shape(params[i]->g);
    }
    if (match) return;
  }
  g_.resize(params.size());
  refs_.resize(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    g_[i].resize(params[i]->g.rows(), params[i]->g.cols());
    g_[i].zero();
    refs_[i] = &g_[i];
  }
}

void GradAccum::zero() {
  for (Mat& m : g_) m.zero();
}

void GradAccum::reduce_into(const std::vector<Param*>& params) const {
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto& dst = params[i]->g.data();
    const auto& src = g_[i].data();
    for (std::size_t j = 0; j < dst.size(); ++j) dst[j] += src[j];
  }
}

PackedLinearF Linear::snapshot_packed() const {
  MatF w(weight_.w.rows(), weight_.w.cols());
  for (std::size_t i = 0; i < weight_.w.size(); ++i) {
    w.data()[i] = static_cast<float>(weight_.w.data()[i]);
  }
  PackedLinearF s;
  pack_weights(w, s.w);
  s.b.assign(bias_.w.data().begin(), bias_.w.data().end());
  return s;
}

Adam::Adam(std::vector<Param*> params, double lr_in, double beta1, double beta2, double eps)
    : lr(lr_in), params_(std::move(params)), beta1_(beta1), beta2_(beta2), eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.emplace_back(p->w.rows(), p->w.cols());
    v_.emplace_back(p->w.rows(), p->w.cols());
  }
}

void Adam::zero_grad() {
  for (Param* p : params_) p->zero_grad();
}

void Adam::clip_grad_norm(double max_norm) {
  if (max_norm <= 0.0) return;
  double sq = 0.0;
  for (Param* p : params_) {
    for (double g : p->g.data()) sq += g * g;
  }
  double norm = std::sqrt(sq);
  if (norm <= max_norm) return;
  double scale = max_norm / norm;
  for (Param* p : params_) {
    for (double& g : p->g.data()) g *= scale;
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& w = params_[i]->w.data();
    auto& g = params_[i]->g.data();
    auto& m = m_[i].data();
    auto& v = v_[i].data();
    for (std::size_t j = 0; j < w.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0 - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0 - beta2_) * g[j] * g[j];
      double mh = m[j] / bc1;
      double vh = v[j] / bc2;
      w[j] -= lr * mh / (std::sqrt(vh) + eps_);
    }
  }
}

namespace {
constexpr std::uint64_t kMagic = 0x5445414C4D444Cull;  // "TEALMDL"
}

void save_params(const std::string& path, const std::vector<Param*>& params) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("save_params: cannot open " + path);
  auto w64 = [&](std::uint64_t v) { f.write(reinterpret_cast<const char*>(&v), sizeof(v)); };
  w64(kMagic);
  w64(static_cast<std::uint64_t>(params.size()));
  for (const Param* p : params) {
    w64(static_cast<std::uint64_t>(p->w.rows()));
    w64(static_cast<std::uint64_t>(p->w.cols()));
    f.write(reinterpret_cast<const char*>(p->w.data().data()),
            static_cast<std::streamsize>(p->w.size() * sizeof(double)));
  }
}

bool load_params(const std::string& path, const std::vector<Param*>& params) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  auto r64 = [&]() {
    std::uint64_t v = 0;
    f.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  if (r64() != kMagic) return false;
  if (r64() != params.size()) return false;
  for (Param* p : params) {
    auto rows = static_cast<int>(r64());
    auto cols = static_cast<int>(r64());
    if (rows != p->w.rows() || cols != p->w.cols()) return false;
    f.read(reinterpret_cast<char*>(p->w.data().data()),
           static_cast<std::streamsize>(p->w.size() * sizeof(double)));
    if (!f) return false;
  }
  return true;
}

}  // namespace teal::nn
