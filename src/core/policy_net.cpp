#include "core/policy_net.h"

#include <algorithm>
#include <stdexcept>

namespace teal::core {

PolicyNet::PolicyNet(const PolicyConfig& cfg, int in_dim, int k_paths, util::Rng& rng)
    : cfg_(cfg), in_dim_(in_dim), k_paths_(k_paths) {
  if (cfg.n_hidden_layers < 0) throw std::invalid_argument("PolicyNet: bad layer count");
  int cur = in_dim;
  for (int i = 0; i < cfg.n_hidden_layers; ++i) {
    hidden_.emplace_back(cur, cfg.hidden_dim, rng);
    cur = cfg.hidden_dim;
  }
  out_ = nn::Linear(cur, k_paths, rng);
}

void PolicyNet::forward(Forward& fwd) const {
  const nn::Mat* cur = &fwd.input;
  fwd.pre.resize(hidden_.size());
  fwd.act.resize(hidden_.size());
  for (std::size_t i = 0; i < hidden_.size(); ++i) {
    hidden_[i].forward(*cur, fwd.pre[i]);
    nn::leaky_relu_forward(fwd.pre[i], fwd.act[i], cfg_.leaky_alpha);
    cur = &fwd.act[i];
  }
  out_.forward(*cur, fwd.logits);
}

template <typename T, typename Lin, typename Out>
void PolicyNet::prepare_forward_impl(ForwardT<T>& fwd, const std::vector<Lin>& hidden,
                                     const Out& out) const {
  const int n = fwd.input.rows();
  fwd.pre.resize(hidden.size());
  fwd.act.resize(hidden.size());
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    fwd.pre[i].resize(n, hidden[i].out_features());
    fwd.act[i].resize(n, hidden[i].out_features());
  }
  fwd.logits.resize(n, out.out_features());
}

template <typename T, typename Lin, typename Out>
void PolicyNet::forward_rows_impl(ForwardT<T>& fwd, const std::vector<Lin>& hidden,
                                  const Out& out, int row_begin, int row_end) const {
  const nn::BasicMat<T>* cur = &fwd.input;
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    hidden[i].forward_rows(*cur, fwd.pre[i], row_begin, row_end);
    nn::leaky_relu_forward_rows(fwd.pre[i], fwd.act[i], row_begin, row_end,
                                cfg_.leaky_alpha);
    cur = &fwd.act[i];
  }
  out.forward_rows(*cur, fwd.logits, row_begin, row_end);
}

void PolicyNet::prepare_forward(Forward& fwd) const {
  prepare_forward_impl(fwd, hidden_, out_);
}

void PolicyNet::forward_rows(Forward& fwd, int row_begin, int row_end) const {
  forward_rows_impl(fwd, hidden_, out_, row_begin, row_end);
}

void PolicyNet::prepare_f32() {
  hidden_f32_.clear();
  hidden_f32_.reserve(hidden_.size());
  for (const auto& l : hidden_) hidden_f32_.push_back(l.snapshot_packed_f32());
  out_f32_ = out_.snapshot_packed_f32();
}

void PolicyNet::prepare_bf16() {
  hidden_bf16_.clear();
  hidden_bf16_.reserve(hidden_.size());
  for (const auto& l : hidden_) hidden_bf16_.push_back(l.snapshot_bf16());
  out_bf16_ = out_.snapshot_bf16();
}

void PolicyNet::prepare_forward(ForwardF& fwd) const {
  if (!f32_ready()) {
    throw std::logic_error(
        "PolicyNet: prepare_f32() has not been called (use "
        "TealScheme::set_precision, which snapshots the weights)");
  }
  prepare_forward_impl(fwd, hidden_f32_, *out_f32_);
}

void PolicyNet::forward_rows(ForwardF& fwd, int row_begin, int row_end) const {
  if (!f32_ready()) {
    throw std::logic_error(
        "PolicyNet: prepare_f32() has not been called (use "
        "TealScheme::set_precision, which snapshots the weights)");
  }
  forward_rows_impl(fwd, hidden_f32_, *out_f32_, row_begin, row_end);
}

void PolicyNet::prepare_forward_bf16(ForwardF& fwd) const {
  if (!bf16_ready()) {
    throw std::logic_error(
        "PolicyNet: prepare_bf16() has not been called (use "
        "TealScheme::set_precision, which snapshots the weights)");
  }
  prepare_forward_impl(fwd, hidden_bf16_, *out_bf16_);
}

void PolicyNet::forward_rows_bf16(ForwardF& fwd, int row_begin, int row_end) const {
  if (!bf16_ready()) {
    throw std::logic_error(
        "PolicyNet: prepare_bf16() has not been called (use "
        "TealScheme::set_precision, which snapshots the weights)");
  }
  forward_rows_impl(fwd, hidden_bf16_, *out_bf16_, row_begin, row_end);
}

PolicyNet::Forward PolicyNet::forward(const nn::Mat& input) const {
  Forward fwd;
  fwd.input = input;
  forward(fwd);
  return fwd;
}

void PolicyNet::backward(const Forward& fwd, const nn::Mat& grad_logits, nn::Mat& grad_input) {
  const nn::Mat* last = fwd.act.empty() ? &fwd.input : &fwd.act.back();
  nn::Mat g_cur;
  out_.backward(*last, grad_logits, g_cur);
  for (int i = static_cast<int>(hidden_.size()) - 1; i >= 0; --i) {
    nn::Mat g_pre;
    nn::leaky_relu_backward(fwd.pre[static_cast<std::size_t>(i)], g_cur, g_pre,
                            cfg_.leaky_alpha);
    const nn::Mat* input = i == 0 ? &fwd.input : &fwd.act[static_cast<std::size_t>(i) - 1];
    hidden_[static_cast<std::size_t>(i)].backward(*input, g_pre, g_cur);
  }
  grad_input = std::move(g_cur);
}

void PolicyNet::backward_ws(const Forward& fwd, const nn::Mat& grad_logits, BackwardWs& ws,
                            nn::Mat& grad_input, nn::GradRefs grads) const {
  const std::size_t n_hidden = hidden_.size();
  if (grads.size() != num_params()) {
    throw std::invalid_argument("PolicyNet::backward_ws: grads size mismatch");
  }
  const nn::Mat* last = fwd.act.empty() ? &fwd.input : &fwd.act.back();
  // The last layer whose input-grad is produced writes straight into
  // grad_input, so no final copy is needed.
  nn::Mat& g_first = n_hidden == 0 ? grad_input : ws.g_cur;
  out_.backward_acc(*last, grad_logits, g_first, *grads[2 * n_hidden],
                    *grads[2 * n_hidden + 1]);
  for (int i = static_cast<int>(n_hidden) - 1; i >= 0; --i) {
    nn::leaky_relu_backward(fwd.pre[static_cast<std::size_t>(i)], ws.g_cur, ws.g_pre,
                            cfg_.leaky_alpha);
    const nn::Mat* input = i == 0 ? &fwd.input : &fwd.act[static_cast<std::size_t>(i) - 1];
    nn::Mat& gx = i == 0 ? grad_input : ws.g_cur;
    hidden_[static_cast<std::size_t>(i)].backward_acc(
        *input, ws.g_pre, gx, *grads[static_cast<std::size_t>(2 * i)],
        *grads[static_cast<std::size_t>(2 * i) + 1]);
  }
}

std::vector<nn::Param*> PolicyNet::params() {
  std::vector<nn::Param*> ps;
  ps.reserve(num_params());
  append_params(ps);
  return ps;
}

void PolicyNet::append_params(std::vector<nn::Param*>& out) {
  for (auto& l : hidden_) l.append_params(out);
  out_.append_params(out);
}

void build_policy_input(const te::Problem& pb, const nn::Mat& path_embeddings, int k,
                        nn::Mat& input, nn::Mat& mask) {
  const int nd = pb.num_demands();
  const int dim = path_embeddings.cols();
  input.resize(nd, k * dim);
  mask.resize(nd, k);
  build_policy_input_rows(pb, path_embeddings, k, input, mask, 0, nd);
}

namespace {
// Shared body of the f64/f32 input assembly: the embedding/input element
// type narrows, the mask stays double (it feeds the f64 masked softmax).
template <typename T>
void build_policy_input_rows_impl(const te::Problem& pb,
                                  const nn::BasicMat<T>& path_embeddings, int k,
                                  nn::BasicMat<T>& input, nn::Mat& mask, int d_begin,
                                  int d_end) {
  const int dim = path_embeddings.cols();
  for (int d = d_begin; d < d_end; ++d) {
    T* row = input.row_ptr(d);
    std::fill(row, row + static_cast<std::size_t>(k) * dim, T(0));
    double* mrow = mask.row_ptr(d);
    std::fill(mrow, mrow + k, 0.0);
    int slot = 0;
    for (int p = pb.path_begin(d); p < pb.path_end(d) && slot < k; ++p, ++slot) {
      std::copy(path_embeddings.row_ptr(p), path_embeddings.row_ptr(p) + dim,
                row + slot * dim);
      mrow[slot] = 1.0;
    }
  }
}
}  // namespace

void build_policy_input_rows(const te::Problem& pb, const nn::Mat& path_embeddings, int k,
                             nn::Mat& input, nn::Mat& mask, int d_begin, int d_end) {
  build_policy_input_rows_impl(pb, path_embeddings, k, input, mask, d_begin, d_end);
}

void build_policy_input_rows(const te::Problem& pb, const nn::MatF& path_embeddings, int k,
                             nn::MatF& input, nn::Mat& mask, int d_begin, int d_end) {
  build_policy_input_rows_impl(pb, path_embeddings, k, input, mask, d_begin, d_end);
}

void check_policy_mask_rows(const te::Problem& pb, const nn::Mat& mask, int d_begin,
                            int d_end) {
  const int k = mask.cols();
  for (int d = d_begin; d < d_end; ++d) {
    if (pb.path_begin(d) >= pb.path_end(d)) continue;  // no paths: all-zero is legal
    const double* mrow = mask.row_ptr(d);
    bool any = false;
    for (int c = 0; c < k; ++c) any = any || mrow[c] != 0.0;
    if (!any) {
      throw std::logic_error(
          "check_policy_mask_rows: demand " + std::to_string(d) + " has " +
          std::to_string(pb.path_end(d) - pb.path_begin(d)) +
          " path(s) but a fully-zero policy mask row — the masked softmax would "
          "silently emit an all-zero split row for it");
    }
  }
}

void scatter_policy_input_grad(const te::Problem& pb, const nn::Mat& grad_input, int k,
                               int dim, nn::Mat& grad_paths) {
  const int nd = pb.num_demands();
  for (int d = 0; d < nd; ++d) {
    const double* row = grad_input.row_ptr(d);
    int slot = 0;
    for (int p = pb.path_begin(d); p < pb.path_end(d) && slot < k; ++p, ++slot) {
      double* dst = grad_paths.row_ptr(p);
      for (int c = 0; c < dim; ++c) dst[c] += row[slot * dim + c];
    }
  }
}

}  // namespace teal::core
