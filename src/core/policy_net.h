// policy_net.h — the shared per-demand policy network (§3.3, §4).
//
// Each demand is allocated *independently* by one RL agent; all agents share
// this network. Per §4, the default shape is: 24 input neurons (4 flow
// embeddings of 6 elements each), one hidden layer of 24 neurons, and 4
// output neurons followed by softmax normalization into split ratios. The
// number of dense layers is configurable for the Figure 15c sensitivity
// sweep. Because the network is per-demand, its parameter count is oblivious
// to the WAN topology size — the property that makes learning tractable.
#pragma once

#include <optional>
#include <vector>

#include "nn/module.h"
#include "te/problem.h"

namespace teal::core {

struct PolicyConfig {
  int hidden_dim = 24;
  int n_hidden_layers = 1;   // dense layers before the output layer
  double leaky_alpha = 0.01;
};

class PolicyNet {
 public:
  // in_dim = k_paths * embedding_dim; out_dim = k_paths.
  PolicyNet(const PolicyConfig& cfg, int in_dim, int k_paths, util::Rng& rng);

  // Doubles as a reusable workspace: repeated in-place forward() calls into
  // the same object resize every Mat within its existing capacity.
  // ForwardT<double> (alias Forward) is the reference/training cache;
  // ForwardT<float> (alias ForwardF) the narrowed f32 inference mirror.
  template <typename T>
  struct ForwardT {
    nn::BasicMat<T> input;              // (D, in_dim)
    std::vector<nn::BasicMat<T>> pre;   // hidden pre-activations
    std::vector<nn::BasicMat<T>> act;   // hidden activations
    nn::BasicMat<T> logits;             // (D, k)
  };
  using Forward = ForwardT<double>;
  using ForwardF = ForwardT<float>;

  // In-place forward: reads fwd.input (which the caller fills, e.g. via
  // build_policy_input), writes pre/act/logits. Allocation-free once warm.
  void forward(Forward& fwd) const;

  // Demand-sharded pair: prepare_forward() sizes pre/act/logits for the
  // (already filled-shape) fwd.input — it must run on one thread before the
  // fan-out, since nn::Mat::resize is not concurrency-safe — then each shard
  // runs forward_rows() on its own demand slice, touching only those rows.
  // Bit-identical to forward() for any row partition.
  void prepare_forward(Forward& fwd) const;
  void forward_rows(Forward& fwd, int row_begin, int row_end) const;

  // Narrowed f32 inference pair over the same sharding contract. Requires
  // prepare_f32() (throws std::logic_error otherwise — the te::Scheme
  // precision knob snapshots the weights).
  void prepare_forward(ForwardF& fwd) const;
  void forward_rows(ForwardF& fwd, int row_begin, int row_end) const;

  // Snapshots the current parameters into blocked f32 mirrors. Not
  // thread-safe against concurrent forwards; re-call after any parameter
  // update.
  void prepare_f32();
  bool f32_ready() const { return out_f32_.has_value(); }

  // `input` rows are per-demand concatenated path embeddings (zero-padded for
  // demands with fewer than k paths). Allocates a fresh Forward per call.
  Forward forward(const nn::Mat& input) const;

  // Backward from d(loss)/d(logits); writes d(loss)/d(input).
  void backward(const Forward& fwd, const nn::Mat& grad_logits, nn::Mat& grad_input);

  // Workspace backward for batched training: identical arithmetic to
  // backward(), but the per-layer grad temporaries live in `ws` (warm calls
  // allocate nothing) and the parameter grads accumulate into `grads` —
  // num_params() entries in params() order — instead of Param::g. const:
  // concurrent calls with distinct ws/grads are safe.
  struct BackwardWs {
    nn::Mat g_cur, g_pre;
  };
  void backward_ws(const Forward& fwd, const nn::Mat& grad_logits, BackwardWs& ws,
                   nn::Mat& grad_input, nn::GradRefs grads) const;

  std::vector<nn::Param*> params();
  // Appends the same pointers into a caller-reserved vector without the
  // per-layer temporaries params() composition would cost.
  void append_params(std::vector<nn::Param*>& out);
  std::size_t num_params() const { return (hidden_.size() + 1) * 2; }

  int k_paths() const { return k_paths_; }
  int in_dim() const { return in_dim_; }

 private:
  // Shared body of the f64/f32 prepare_forward and forward_rows pairs.
  template <typename T, typename Lin>
  void prepare_forward_impl(ForwardT<T>& fwd, const std::vector<Lin>& hidden,
                            const Lin& out) const;
  template <typename T, typename Lin>
  void forward_rows_impl(ForwardT<T>& fwd, const std::vector<Lin>& hidden, const Lin& out,
                         int row_begin, int row_end) const;

  PolicyConfig cfg_;
  int in_dim_, k_paths_;
  std::vector<nn::Linear> hidden_;
  nn::Linear out_;
  // Narrowed f32 inference mirrors, stored as lane-blocked panels (empty
  // until prepare_f32()).
  std::vector<nn::PackedLinear> hidden_f32_;
  std::optional<nn::PackedLinear> out_f32_;
};

// Assembles the (D, k*dim) policy input matrix from final path embeddings and
// the (D, k) validity mask (1 where the demand has an i-th path).
void build_policy_input(const te::Problem& pb, const nn::Mat& path_embeddings, int k,
                        nn::Mat& input, nn::Mat& mask);

// Row-range variant for sharded callers: fills demand rows [d_begin, d_end)
// of `input`/`mask`, which must be pre-sized to (D, k*dim) and (D, k).
void build_policy_input_rows(const te::Problem& pb, const nn::Mat& path_embeddings, int k,
                             nn::Mat& input, nn::Mat& mask, int d_begin, int d_end);

// f32 variant for the narrowed inference path: the embeddings and the policy
// input are float, but the validity mask stays double — it feeds the f64
// masked softmax downstream, so only NN arithmetic narrows.
void build_policy_input_rows(const te::Problem& pb, const nn::MatF& path_embeddings, int k,
                             nn::MatF& input, nn::Mat& mask, int d_begin, int d_end);

// Contract guard at the policy boundary: a demand that owns at least one
// path must have at least one nonzero mask entry, otherwise the masked
// softmax silently emits an all-zero split row that downstream ADMM consumes
// as "route nothing" (demands with zero paths legitimately keep all-zero
// rows). Throws std::logic_error naming the first offending demand. Checks
// demand rows [d_begin, d_end); cheap (O(rows * k)), run per shard slice on
// the solve path.
void check_policy_mask_rows(const te::Problem& pb, const nn::Mat& mask, int d_begin,
                            int d_end);

// Scatters d(loss)/d(policy input) back into a (N_p, dim) path-embedding grad.
void scatter_policy_input_grad(const te::Problem& pb, const nn::Mat& grad_input, int k,
                               int dim, nn::Mat& grad_paths);

}  // namespace teal::core
