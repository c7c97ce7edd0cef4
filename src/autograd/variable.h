// Reverse-mode automatic differentiation on Matrix values.
//
// A Variable is a cheap handle (shared_ptr) to a tape node holding a
// value, an accumulated gradient, and a closure that propagates the
// node's gradient to its parents. Every op in autograd/ops.h builds a
// fresh node, so each forward pass constructs a new DAG; calling
// Backward() on a scalar output walks the DAG in reverse topological
// order. Parameter nodes (requires_grad = true, no parents) persist
// across steps and accumulate gradients until ZeroGrad().
//
// This mirrors the subset of torch.autograd the paper's training
// loops rely on, at laptop scale; gradcheck.h pins correctness of
// every op against central finite differences.
//
// ag::ForkJoin2 builds two independent sub-tapes (the two augmented
// views of a contrastive step) concurrently and runs their backward
// walks concurrently too; see its comment for the bit-identity rule.

#ifndef GRADGCL_AUTOGRAD_VARIABLE_H_
#define GRADGCL_AUTOGRAD_VARIABLE_H_

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace gradgcl {

namespace internal {

// Tape node. Users interact with Variable, never with Node directly.
struct Node {
  Matrix value;
  Matrix grad;           // same shape as value once backward touches it
  bool requires_grad = false;
  bool grad_initialized = false;
  std::vector<std::shared_ptr<Node>> parents;
  // Propagates this->grad into the parents' grads. Set only when some
  // parent takes part in backward.
  std::function<void(Node&)> backward_fn;

  // Whether backward reaches this node: it is a parameter, or a
  // parameter lies upstream. A node computed from constants alone has
  // no backward_fn, so backward neither visits it nor fills its grad.
  bool NeedsGrad() const { return requires_grad || backward_fn != nullptr; }

  // A parameter or other leaf: gradients stop here.
  bool IsLeaf() const { return requires_grad && backward_fn == nullptr; }

  // Adds `delta` into this node's gradient accumulator. The first delta
  // is copied (const&) or adopted (&&) rather than added onto zeros.
  // During a ForkJoin2 branch walk, a delta into a leaf is captured
  // for the join to fold in instead.
  void AccumulateGrad(const Matrix& delta);
  void AccumulateGrad(Matrix&& delta);
};

// True while the calling thread runs a ForkJoin2 branch's backward
// walk (leaf gradients are being captured). Exposed for tests.
bool CapturingLeafGrads();

}  // namespace internal

// Differentiable matrix value; see file comment.
class Variable {
 public:
  // Creates an empty (null) variable.
  Variable() = default;

  // Wraps a constant or parameter value. Parameters (weights that an
  // optimiser updates) pass requires_grad = true.
  explicit Variable(Matrix value, bool requires_grad = false);

  // --- Value and gradient access ------------------------------------------

  bool defined() const { return node_ != nullptr; }
  const Matrix& value() const;
  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }

  // Gradient accumulated by Backward(); zero matrix if untouched.
  const Matrix& grad() const;

  // Overwrites the accumulated gradient (shape-checked). Used by the
  // distributed trainer to install the all-reduced gradient before the
  // optimiser step.
  void set_grad(Matrix grad);

  // Overwrites the stored value, keeping the node identity (used by
  // optimisers so downstream graphs keep referring to the same node).
  void set_value(Matrix value);

  bool requires_grad() const;

  // Resets the accumulated gradient to zero.
  void ZeroGrad();

  // Detaches: returns a new constant Variable sharing this value but
  // cut off from the tape (no parents, requires_grad = false).
  Variable Detach() const;

  // Scalar convenience: value of a 1x1 variable.
  double scalar() const;

  // --- Graph construction (used by autograd/ops.cc) ------------------------

  // Builds an op node with the given output value, parents, and
  // backward closure. The closure receives the output node (with its
  // grad filled in) and must AccumulateGrad into each parent that
  // requires gradients.
  static Variable MakeOp(Matrix value,
                         std::vector<Variable> parents,
                         std::function<void(internal::Node&)> backward_fn);

  std::shared_ptr<internal::Node> node() const { return node_; }

 private:
  std::shared_ptr<internal::Node> node_;
};

// Runs reverse-mode accumulation from `loss`, which must be a 1x1
// scalar. Gradients accumulate into every reachable node that needs
// them (Node::NeedsGrad): parameters and the nodes between them and
// the loss.
void Backward(const Variable& loss);

namespace ag {

// Fork-join of two independent sub-tapes: out[k] = branch(k). The two
// calls run as the two items of one ParallelFor region (inline, 0 then
// 1, with one thread or inside a region), each under its own
// TapeScope when the caller has one. The branches may share leaves
// (parameters) and constants, but no other node that needs gradients,
// and must not touch shared mutable state (Rng draws stay outside).
//
// Each output that needs gradients is a copy of its branch's value
// hanging off one join node. Backward reaches that node after both
// outputs' gradients are final, then walks the branches' sub-tapes as
// two pool items (an output that received no gradient is not walked).
// Every gradient into a leaf is captured during a walk and folded in
// afterwards on the calling thread, branch 0 first, so the result is
// bit-identical at every thread count. It also equals one serial walk
// of the same graph whenever each leaf receives at most one gradient
// per branch (addition of two terms commutes).
std::array<Variable, 2> ForkJoin2(const std::function<Variable(int)>& branch);

}  // namespace ag

}  // namespace gradgcl

#endif  // GRADGCL_AUTOGRAD_VARIABLE_H_
