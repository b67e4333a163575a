#ifndef EHNA_NN_AUTOGRAD_H_
#define EHNA_NN_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/tensor.h"

namespace ehna {

namespace internal {
struct VarImpl;
}  // namespace internal

/// A node in a dynamically built reverse-mode autodiff graph. `Var` is a
/// cheap shared handle: ops produce new Vars wired to their inputs, and
/// `Backward(loss)` propagates gradients through the recorded graph in
/// reverse topological order. Gradients accumulate (+=) into each node's
/// `grad()` tensor, so parameters can participate in several subgraphs per
/// step; call `ZeroGrad()` between steps.
class Var {
 public:
  /// Null handle; most APIs reject it.
  Var() = default;

  /// A leaf holding `value`. If `requires_grad`, gradients reaching the leaf
  /// are retained in grad().
  static Var Leaf(Tensor value, bool requires_grad = false);

  /// An interior node produced by an op. `backward` receives (grad_of_this,
  /// this_value) and must route gradient contributions into the parents via
  /// `AccumulateGrad`. Ops use the helpers in ops.h; model code rarely calls
  /// this directly.
  static Var Op(Tensor value, std::vector<Var> parents,
                std::function<void(const Tensor& grad, const Tensor& value)>
                    backward,
                const char* name = "op");

  bool defined() const { return impl_ != nullptr; }

  const Tensor& value() const;
  Tensor& mutable_value();

  /// Accumulated gradient; zero-shaped until backward has touched this node.
  const Tensor& grad() const;

  bool requires_grad() const;

  /// Clears the gradient (used on parameter leaves between steps). Const
  /// because Var has shared-handle semantics: the mutation targets the
  /// shared node, not the handle.
  void ZeroGrad() const;

  /// Adds `g` into this node's gradient (allocating it on first use). Ops'
  /// backward closures call this on their parents.
  void AccumulateGrad(const Tensor& g) const;

  /// Adds `g` (a block of full-width rows) into rows [row_start,
  /// row_start + g.rows()) of this node's gradient, allocating a zeroed
  /// full-shape gradient on first use. Lets segment/pack ops route
  /// row-disjoint contributions without materializing full-size zero
  /// tensors per contribution.
  void AccumulateGradRows(int64_t row_start, const Tensor& g) const;

  /// Single-row raw-pointer variant of AccumulateGradRows: adds `g_row`
  /// (this->value().cols() floats) into row `row` of the gradient.
  void AccumulateGradRow(int64_t row, const float* g_row) const;

  /// Scales the accumulated gradient in place (no-op if no gradient has
  /// reached this node). Used by gradient clipping to avoid re-allocating
  /// every gradient tensor.
  void ScaleGrad(float alpha) const;

  /// Op name for debugging.
  const char* name() const;

  /// Identity comparison (same graph node).
  bool operator==(const Var& other) const { return impl_ == other.impl_; }

  /// Internal access for the engine.
  internal::VarImpl* impl() const { return impl_.get(); }

 private:
  explicit Var(std::shared_ptr<internal::VarImpl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<internal::VarImpl> impl_;
};

/// Forward-only mode (DESIGN.md §13). While a scope is alive on the calling
/// thread, Var::Op keeps each node's value but records no parents and no
/// backward closure, so a forward pass builds no tape: intermediates are
/// freed as soon as nothing downstream reads their values, and Backward
/// through such a node reaches nothing. Values are computed by the same
/// code either way, so they are bitwise-identical with and without a tape.
/// Scopes nest (the destructor restores the previous state) and are
/// thread-local: other threads keep recording.
class NoTapeScope {
 public:
  NoTapeScope();
  ~NoTapeScope();
  NoTapeScope(const NoTapeScope&) = delete;
  NoTapeScope& operator=(const NoTapeScope&) = delete;

  /// True while any NoTapeScope is alive on the calling thread.
  static bool active();

 private:
  bool previous_;
};

namespace internal {
struct VarImpl {
  Tensor value;
  Tensor grad;            // empty until first accumulation.
  bool requires_grad = false;
  bool grad_defined = false;
  const char* name = "leaf";
  std::vector<Var> parents;
  std::function<void(const Tensor&, const Tensor&)> backward;

  // Intrusive traversal state for Backward(). Each traversal draws a fresh
  // tag from a global counter; a field matching the current tag means "seen
  // this traversal". This replaces per-Backward hash maps (which dominated
  // traversal cost on LSTM-depth graphs) with two branch-predictable
  // compares per visit. Tags start at 1, so the zero init never collides.
  uint64_t needs_tag = 0;        // memo validity for needs_grad_cached.
  bool needs_grad_cached = false;
  uint64_t visited_tag = 0;      // DFS membership for the current traversal.
};
}  // namespace internal

/// Runs reverse-mode differentiation from `root`, which must hold a single
/// scalar (numel() == 1). Seeds d(root)/d(root) = 1 and invokes each
/// reachable node's backward closure exactly once, in reverse topological
/// order. Nodes whose subtree contains no grad-requiring leaf are skipped.
void Backward(const Var& root);

}  // namespace ehna

#endif  // EHNA_NN_AUTOGRAD_H_
