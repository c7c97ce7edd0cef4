// Bucketed ring all-reduce with a fixed reduction tree.
//
// The repo's determinism contract requires the reduced gradient to be
// a pure function of the data and the bucket layout — never of world
// size, message arrival order, or scheduling. Classic ring
// reduce-scatter breaks that: it accumulates partial sums along the
// ring, so the floating-point association rotates with the chunk index
// and changes with W. This implementation instead ships *raw*
// contributions and reduces them only at the chunk's owner, in a fixed
// order:
//
//  1. Collect phase (W-1 steps). Chunk c of each bucket is owned by
//     rank c. At step s, rank r sends one message: its own raw
//     contribution for chunk (r-s) mod W followed by the message it
//     received at step s-1 (which holds ranks r-1..r-s+1's raw
//     contributions for the same chunk). After step W-1, rank r holds
//     all W raw contributions for its chunk r.
//  2. Owner reduction. The owner sums the W contributions elementwise
//     with a stride-doubling pairwise tree in absolute rank order
//     (TreeReduceInPlace) — the same tree at every W, and the same
//     tree shape the data-parallel trainer uses over its
//     gradient-accumulation slots, which is what composes rank-local
//     partial sums into a W-independent total.
//  3. All-gather phase (W-1 steps). Reduced chunks circulate the ring:
//     at step s, rank r sends chunk (r-s+1) mod W and receives chunk
//     (r-s) mod W.
//
// Per-rank traffic is (W-1)/W of the data per phase — identical to the
// classic ring — and all staging lives in rank-private buffers. The
// vector is processed in buckets of `bucket_bytes` so staging stays
// bounded for arbitrarily large gradients (DistOptions::bucket_bytes).

#ifndef GRADGCL_DISTRIBUTED_RING_ALLREDUCE_H_
#define GRADGCL_DISTRIBUTED_RING_ALLREDUCE_H_

#include <cstdint>

#include "distributed/comm.h"

namespace gradgcl {
namespace dist {

// Elementwise sum of `count` equal-length buffers with a
// stride-doubling pairwise tree in index order; the result lands in
// bufs[0] and the other buffers are clobbered with partial sums. For
// power-of-two counts this is exactly the recursive-halving tree, so a
// contiguous aligned sub-block of size 2^k is an exact subtree —
// rank-local reductions compose into the global tree bit-for-bit.
void TreeReduceInPlace(double** bufs, int count, int64_t n);

// All-reduces data[0..n) (elementwise sum across all ranks of `comm`)
// with the fixed-tree schedule above. All ranks end with bit-identical
// sums; the result is invariant to world size for rank-partials that
// are aligned sub-blocks of one global tree (see data_parallel.h).
// bucket_bytes < 8 is clamped to one double per bucket.
CommStatus RingAllReduceSum(CommBackend& comm, double* data, int64_t n,
                            int64_t bucket_bytes);

}  // namespace dist
}  // namespace gradgcl

#endif  // GRADGCL_DISTRIBUTED_RING_ALLREDUCE_H_
