#include "autograd/variable.h"

#include <optional>
#include <unordered_set>
#include <utility>

#include "common/parallel.h"
#include "obs/trace.h"
#include "tensor/pool.h"

namespace gradgcl {

namespace {

// Leaf gradients captured by the ForkJoin2 branch walk running on this
// thread, in arrival order; null outside such a walk.
using LeafGrads = std::vector<std::pair<internal::Node*, Matrix>>;
thread_local LeafGrads* t_leaf_sink = nullptr;

}  // namespace

namespace internal {

bool CapturingLeafGrads() { return t_leaf_sink != nullptr; }

void Node::AccumulateGrad(const Matrix& delta) {
  GRADGCL_CHECK(delta.rows() == value.rows() && delta.cols() == value.cols());
  if (t_leaf_sink != nullptr && IsLeaf()) {
    t_leaf_sink->emplace_back(this, delta);
    return;
  }
  if (grad_initialized) {
    grad += delta;
    return;
  }
  grad = delta;
  grad_initialized = true;
}

void Node::AccumulateGrad(Matrix&& delta) {
  GRADGCL_CHECK(delta.rows() == value.rows() && delta.cols() == value.cols());
  if (t_leaf_sink != nullptr && IsLeaf()) {
    t_leaf_sink->emplace_back(this, std::move(delta));
    return;
  }
  if (grad_initialized) {
    grad += delta;
    return;
  }
  grad = std::move(delta);
  grad_initialized = true;
}

}  // namespace internal

Variable::Variable(Matrix value, bool requires_grad) {
  node_ = std::make_shared<internal::Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

const Matrix& Variable::value() const {
  GRADGCL_CHECK_MSG(defined(), "access on null Variable");
  return node_->value;
}

const Matrix& Variable::grad() const {
  GRADGCL_CHECK_MSG(defined(), "access on null Variable");
  if (!node_->grad_initialized) {
    node_->grad = Matrix::Zeros(node_->value.rows(), node_->value.cols());
    node_->grad_initialized = true;
  }
  return node_->grad;
}

void Variable::set_grad(Matrix grad) {
  GRADGCL_CHECK_MSG(defined(), "set_grad on null Variable");
  GRADGCL_CHECK(grad.rows() == node_->value.rows() &&
                grad.cols() == node_->value.cols());
  node_->grad = std::move(grad);
  node_->grad_initialized = true;
}

void Variable::set_value(Matrix value) {
  GRADGCL_CHECK_MSG(defined(), "set_value on null Variable");
  GRADGCL_CHECK(value.rows() == node_->value.rows() &&
                value.cols() == node_->value.cols());
  node_->value = std::move(value);
}

bool Variable::requires_grad() const {
  GRADGCL_CHECK_MSG(defined(), "access on null Variable");
  return node_->requires_grad;
}

void Variable::ZeroGrad() {
  GRADGCL_CHECK_MSG(defined(), "ZeroGrad on null Variable");
  // In place when possible: parameters call this every step, and a
  // fresh Zeros would heap-allocate per parameter per step.
  if (node_->grad_initialized &&
      node_->grad.rows() == node_->value.rows() &&
      node_->grad.cols() == node_->value.cols()) {
    node_->grad.Fill(0.0);
    return;
  }
  node_->grad = Matrix::Zeros(node_->value.rows(), node_->value.cols());
  node_->grad_initialized = true;
}

Variable Variable::Detach() const {
  GRADGCL_CHECK_MSG(defined(), "Detach on null Variable");
  return Variable(node_->value, /*requires_grad=*/false);
}

double Variable::scalar() const {
  GRADGCL_CHECK_MSG(value().size() == 1, "scalar() on non-1x1 Variable");
  return value()(0, 0);
}

Variable Variable::MakeOp(Matrix value, std::vector<Variable> parents,
                          std::function<void(internal::Node&)> backward_fn) {
  Variable out(std::move(value), /*requires_grad=*/false);
  bool any_grad = false;
  for (const Variable& p : parents) {
    GRADGCL_CHECK_MSG(p.defined(), "op on null Variable");
    out.node_->parents.push_back(p.node());
    // A node needs gradients if any ancestor is a parameter.
    if (p.node()->NeedsGrad()) any_grad = true;
  }
  if (any_grad) {
    out.node_->backward_fn = std::move(backward_fn);
  }
  return out;
}

namespace {

using internal::Node;

// Runs reverse-mode accumulation from `root`, whose gradient is already
// seeded, through every node that needs gradients.
void Propagate(Node* root) {
  // Iterative post-order DFS to get a reverse topological order. It
  // skips parents that do not need gradients: nothing below them does
  // either, and leaving them out keeps the relative order of the rest.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(root, 0);
  visited.insert(root);
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child++].get();
      if (child->NeedsGrad() && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  // Post-order, so iterate from the back.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn && node->grad_initialized) {
      node->backward_fn(*node);
    }
  }
}

// Runs fn(0) .. fn(n - 1) as the items of one region (inline and in
// order with one thread or inside a region). A branch on a pool worker
// pools its buffers like the caller; only the caller's scope reports
// the step's pool traffic.
template <typename Fn>
void RunBranches(int n, Fn&& fn) {
  const bool pooled = TapeScope::Active();
  ParallelFor(0, n, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      obs::TraceScope span("autograd/branch");
      std::optional<TapeScope> tape;
      if (pooled) tape.emplace(/*report=*/false);
      fn(static_cast<int>(i));
    }
  });
}

}  // namespace

void Backward(const Variable& loss) {
  GRADGCL_CHECK_MSG(loss.defined(), "Backward on null Variable");
  GRADGCL_CHECK_MSG(loss.value().size() == 1,
                    "Backward requires a 1x1 scalar loss");
  // Seed d(loss)/d(loss) = 1.
  Node* root = loss.node().get();
  root->grad = Matrix(1, 1, 1.0);
  root->grad_initialized = true;
  Propagate(root);
}

namespace ag {

std::array<Variable, 2> ForkJoin2(
    const std::function<Variable(int)>& branch) {
  std::array<Variable, 2> roots;
  RunBranches(2, [&](int k) {
    roots[k] = branch(k);
    GRADGCL_CHECK_MSG(roots[k].defined(), "ForkJoin2 branch returned null");
  });

  // Only outputs with a backward_fn lead into a sub-tape; constants and
  // leaves are returned as they are.
  std::array<Variable, 2> out = roots;
  auto join = std::make_shared<Node>();
  std::array<std::weak_ptr<Node>, 2> outputs;
  std::array<std::shared_ptr<Node>, 2> subtapes;
  for (int k = 0; k < 2; ++k) {
    if (roots[k].node()->backward_fn == nullptr) continue;
    out[k] = Variable(roots[k].value());
    out[k].node()->parents.push_back(join);
    // Marks the join as reached; the join reads this output's grad.
    out[k].node()->backward_fn = [](Node& o) {
      o.parents[0]->grad_initialized = true;
    };
    outputs[k] = out[k].node();
    subtapes[k] = roots[k].node();
  }
  if (subtapes[0] == nullptr && subtapes[1] == nullptr) return out;

  join->backward_fn = [outputs, subtapes](Node&) {
    // Branches whose output received a gradient, in branch order.
    std::array<int, 2> live{};
    std::array<std::shared_ptr<Node>, 2> seeds;
    int n = 0;
    for (int k = 0; k < 2; ++k) {
      std::shared_ptr<Node> o = outputs[k].lock();
      if (o != nullptr && o->grad_initialized) {
        live[n] = k;
        seeds[n++] = std::move(o);
      }
    }
    std::array<LeafGrads, 2> captured;
    RunBranches(n, [&](int i) {
      Node* root = subtapes[live[i]].get();
      root->grad = seeds[i]->grad;
      root->grad_initialized = true;
      LeafGrads* outer = std::exchange(t_leaf_sink, &captured[i]);
      Propagate(root);
      t_leaf_sink = outer;
    });
    // Fold in fixed branch order. Inside an enclosing branch walk the
    // leaf deltas are captured again, by that walk's sink.
    for (int i = 0; i < n; ++i) {
      for (auto& [leaf, delta] : captured[i]) {
        leaf->AccumulateGrad(std::move(delta));
      }
    }
  };
  return out;
}

}  // namespace ag

}  // namespace gradgcl
