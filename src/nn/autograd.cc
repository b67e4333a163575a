#include "nn/autograd.h"

#include <atomic>

#include "nn/kernels.h"

namespace ehna {

using internal::VarImpl;

namespace {
thread_local bool no_tape = false;
}  // namespace

NoTapeScope::NoTapeScope() : previous_(no_tape) { no_tape = true; }

NoTapeScope::~NoTapeScope() { no_tape = previous_; }

bool NoTapeScope::active() { return no_tape; }

Var Var::Leaf(Tensor value, bool requires_grad) {
  auto impl = std::make_shared<VarImpl>();
  impl->value = std::move(value);
  impl->requires_grad = requires_grad;
  impl->name = "leaf";
  return Var(std::move(impl));
}

Var Var::Op(Tensor value, std::vector<Var> parents,
            std::function<void(const Tensor&, const Tensor&)> backward,
            const char* name) {
  for (const Var& p : parents) {
    EHNA_CHECK(p.defined());
  }
  auto impl = std::make_shared<VarImpl>();
  impl->value = std::move(value);
  impl->name = name;
  if (!no_tape) {
    impl->parents = std::move(parents);
    impl->backward = std::move(backward);
  }
  return Var(std::move(impl));
}

const Tensor& Var::value() const {
  EHNA_CHECK(defined());
  return impl_->value;
}

Tensor& Var::mutable_value() {
  EHNA_CHECK(defined());
  return impl_->value;
}

const Tensor& Var::grad() const {
  EHNA_CHECK(defined());
  return impl_->grad;
}

bool Var::requires_grad() const {
  EHNA_CHECK(defined());
  return impl_->requires_grad;
}

void Var::ZeroGrad() const {
  EHNA_CHECK(defined());
  impl_->grad = Tensor();
  impl_->grad_defined = false;
}

void Var::AccumulateGrad(const Tensor& g) const {
  EHNA_CHECK(defined());
  EHNA_CHECK(g.SameShape(impl_->value));
  if (!impl_->grad_defined) {
    impl_->grad = g;
    impl_->grad_defined = true;
  } else {
    impl_->grad.AddInPlace(g);
  }
}

void Var::AccumulateGradRows(int64_t row_start, const Tensor& g) const {
  EHNA_CHECK(defined());
  EHNA_CHECK_EQ(impl_->value.rank(), 2);
  EHNA_CHECK_EQ(g.cols(), impl_->value.cols());
  EHNA_CHECK_GE(row_start, 0);
  EHNA_CHECK_LE(row_start + g.rows(), impl_->value.rows());
  if (!impl_->grad_defined) {
    impl_->grad = Tensor(impl_->value.rows(), impl_->value.cols());
    impl_->grad_defined = true;
  }
  const int64_t cols = impl_->value.cols();
  kernels::Axpy(g.rows() * cols, 1.0f, g.data(),
                impl_->grad.Row(row_start));
}

void Var::AccumulateGradRow(int64_t row, const float* g_row) const {
  EHNA_CHECK(defined());
  EHNA_CHECK_EQ(impl_->value.rank(), 2);
  EHNA_CHECK(row >= 0 && row < impl_->value.rows());
  if (!impl_->grad_defined) {
    impl_->grad = Tensor(impl_->value.rows(), impl_->value.cols());
    impl_->grad_defined = true;
  }
  kernels::Axpy(impl_->value.cols(), 1.0f, g_row, impl_->grad.Row(row));
}

void Var::ScaleGrad(float alpha) const {
  EHNA_CHECK(defined());
  if (impl_->grad_defined) impl_->grad.ScaleInPlace(alpha);
}

const char* Var::name() const {
  EHNA_CHECK(defined());
  return impl_->name;
}

namespace {

/// Monotonic traversal-id source. Worker threads run Backward concurrently
/// on disjoint replica tapes; the atomic only hands out distinct tags, it
/// never synchronizes node state (no node is shared between live tapes).
std::atomic<uint64_t> traversal_counter{0};

/// Marks every node whose subtree reaches a grad-requiring leaf (or a leaf
/// with a gradient hook). Memoized intrusively under `tag`.
bool ComputeNeedsGrad(VarImpl* node, uint64_t tag) {
  if (node->needs_tag == tag) return node->needs_grad_cached;
  // Provisional false stops cycles (graphs are DAGs by construction, but
  // defensive).
  node->needs_tag = tag;
  node->needs_grad_cached = false;
  bool needs = node->requires_grad ||
               (node->parents.empty() && static_cast<bool>(node->backward));
  for (const Var& p : node->parents) {
    needs = ComputeNeedsGrad(p.impl(), tag) || needs;
  }
  node->needs_grad_cached = needs;
  return needs;
}

}  // namespace

void Backward(const Var& root) {
  EHNA_CHECK(root.defined());
  EHNA_CHECK_EQ(root.value().numel(), 1);

  const uint64_t tag =
      traversal_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!ComputeNeedsGrad(root.impl(), tag)) return;  // nothing to do.

  // Iterative DFS post-order: parents land before children; reversed, every
  // node is processed after all nodes that feed gradient into it.
  std::vector<VarImpl*> order;
  struct Frame {
    VarImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root.impl(), 0});
  root.impl()->visited_tag = tag;
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      VarImpl* p = f.node->parents[f.next_parent++].impl();
      if (p->visited_tag != tag && p->needs_tag == tag &&
          p->needs_grad_cached) {
        p->visited_tag = tag;
        stack.push_back({p, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }

  // Seed d(root)/d(root) = 1.
  Tensor seed = root.value();
  seed.Fill(1.0f);
  root.impl()->grad = seed;
  root.impl()->grad_defined = true;

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VarImpl* node = *it;
    if (!node->backward) continue;
    if (!node->grad_defined) continue;  // no gradient flowed here.
    node->backward(node->grad, node->value);
  }
}

}  // namespace ehna
