// variants.h — the Figure 14 ablation models (§5.7).
//
// Each variant replaces exactly one of Teal's design decisions and plugs into
// the same trainers and TealScheme wrapper via the Model seam (f64 only; the
// workspace backward makes them train on every rollout worker like Teal):
//
//  * NaiveDnnModel  ("Teal w/ naive DNN")   — a fully-connected network that
//    maps the raw traffic matrix straight to all split logits, ignoring WAN
//    connectivity entirely.
//  * NaiveGnnModel  ("Teal w/ naive GNN")   — a conventional GNN over the WAN
//    topology itself (one node per network site, message passing over links);
//    demands read the embeddings of their endpoints. Captures connectivity
//    but not flows/paths.
//  * GlobalPolicyModel ("Teal w/ global policy") — FlowGNN features feed one
//    gigantic policy network that ingests *all* path embeddings at once and
//    emits *all* split logits. Parameter count scales with topology size; on
//    large WANs construction exceeds a memory budget and throws, reproducing
//    the paper's "memory errors" on ASN.
#pragma once

#include "core/flow_gnn.h"
#include "core/model.h"

namespace teal::core {

struct NaiveDnnConfig {
  int hidden_dim = 128;
  int n_layers = 6;  // matches "6-layer fully-connected" in §5.7
  double leaky_alpha = 0.01;
};

class NaiveDnnModel : public Model {
 public:
  // The input/output dims are baked from the problem (D and D*k), so the
  // model is inherently tied to one topology and demand set.
  NaiveDnnModel(const NaiveDnnConfig& cfg, const te::Problem& pb, std::uint64_t seed = 42);

  void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* capacities, ModelForward& fwd,
                  const ShardPlan& shards, ShardStat* stats = nullptr,
                  te::Precision precision = te::Precision::f64) const override;
  void backward_ws(const te::Problem& pb, const ModelForward& fwd,
                   const nn::Mat& grad_logits, TrainBackward& bws,
                   nn::GradRefs grads) const override;
  std::vector<nn::Param*> params() override;
  int k_paths() const override { return k_; }

 private:
  struct Cache;    // forward activations (ModelForward::cache)
  struct Scratch;  // backward grad temporaries (TrainBackward::cache)
  NaiveDnnConfig cfg_;
  int k_, n_demands_;
  std::vector<nn::Linear> layers_;
};

struct NaiveGnnConfig {
  int n_layers = 6;
  int embed_dim = 6;
  int policy_hidden = 24;
  double leaky_alpha = 0.01;
};

class NaiveGnnModel : public Model {
 public:
  NaiveGnnModel(const NaiveGnnConfig& cfg, const te::Problem& pb, std::uint64_t seed = 42);

  void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* capacities, ModelForward& fwd,
                  const ShardPlan& shards, ShardStat* stats = nullptr,
                  te::Precision precision = te::Precision::f64) const override;
  void backward_ws(const te::Problem& pb, const ModelForward& fwd,
                   const nn::Mat& grad_logits, TrainBackward& bws,
                   nn::GradRefs grads) const override;
  std::vector<nn::Param*> params() override;
  int k_paths() const override { return k_; }

 private:
  struct Cache;    // forward activations (ModelForward::cache)
  struct Scratch;  // backward grad temporaries (TrainBackward::cache)
  NaiveGnnConfig cfg_;
  int k_;
  // Node features: [out-demand, in-demand, sum adjacent capacity] -> embed.
  nn::Linear input_proj_;
  std::vector<nn::Linear> layers_;  // message passing: [self | mean nbrs] -> embed
  nn::Linear policy_hidden_, policy_out_;  // [src emb | dst emb | volume] -> k logits
};

struct GlobalPolicyConfig {
  FlowGnnConfig gnn;
  int hidden_dim = 256;
  double leaky_alpha = 0.01;
  // Construction throws if the giant layer would exceed this many parameters
  // (the paper reports memory errors on ASN; 18.1 GB of LP state is its
  // reference point, we budget ~2e8 doubles ~ 1.6 GB for the weight matrix).
  std::size_t max_params = 200'000'000;
};

class GlobalPolicyModel : public Model {
 public:
  GlobalPolicyModel(const GlobalPolicyConfig& cfg, const te::Problem& pb,
                    std::uint64_t seed = 42);

  void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* capacities, ModelForward& fwd,
                  const ShardPlan& shards, ShardStat* stats = nullptr,
                  te::Precision precision = te::Precision::f64) const override;
  void backward_ws(const te::Problem& pb, const ModelForward& fwd,
                   const nn::Mat& grad_logits, TrainBackward& bws,
                   nn::GradRefs grads) const override;
  std::vector<nn::Param*> params() override;
  int k_paths() const override { return k_; }

 private:
  struct Cache;    // forward activations (ModelForward::cache)
  struct Scratch;  // backward grad temporaries (TrainBackward::cache)
  GlobalPolicyConfig cfg_;
  int k_, total_paths_;
  FlowGnn gnn_;
  nn::Linear giant_in_, giant_out_;  // (P*dim) -> hidden -> P logits
};

}  // namespace teal::core
