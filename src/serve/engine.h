// In-process embedding inference engine: an executor over the
// sharded micro-batching ingress (common/sharded_ingress.h) with RCU
// model-version hot-swap.
//
// Many client threads call Embed() concurrently; the ingress coalesces
// pending requests into batches (sharded admission, size-or-deadline
// launch, cross-shard top-up, deadline-respecting work stealing,
// per-request completion, drain-or-cancel shutdown — DESIGN.md §8
// "Serving model"), and the engine runs one tape-free forward per
// batch over the disjoint union of its graphs. The work unit is a
// graph and the batch key is the model handle, so a batch only
// coalesces requests for the same model.
//
//  * Model hot-swap: the engine serves ModelRegistry snapshots. Each
//    batch Acquire()s its model's current snapshot once (RCU read) and
//    runs entirely on that version — publishing a new version mid-
//    batch never mixes parameters, and every kOk EmbedResult carries
//    the model name + version that computed it. One engine serves any
//    number of registered models.
//  * Determinism: the forward kernels compute every embedding row
//    independently of its batch-mates (see serve/session.h), so
//    results are bit-identical whatever the sharding, coalescing,
//    stealing, worker count, GRADGCL_NUM_THREADS, or timing —
//    batching and sharding are pure throughput knobs, never
//    correctness ones.
//
// Observability: the ingress metrics under the "serve" prefix —
//   serve/requests, serve/rejected, serve/batches, serve/graphs, and
//   serve/steals counters, per-shard serve/queue_depth/shard<i>
//   gauges, and the serve/latency_us + serve/batch_graphs histograms
//   (p50/p95/p99 via SummarizePercentiles); each batch executes under
//   a "serve/batch" trace span. Serve metrics are always on — they
//   are the product surface of this subsystem, unlike the trainer's
//   gated hooks.

#ifndef GRADGCL_SERVE_ENGINE_H_
#define GRADGCL_SERVE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/sharded_ingress.h"
#include "serve/registry.h"
#include "serve/session.h"

namespace gradgcl::serve {

// Engine configuration; defaults serve small-graph traffic sensibly.
struct ServeOptions {
  // Worker threads executing batches. 0 = no workers: callers pump
  // batches with RunOneBatch() (deterministic tests, single-threaded
  // embedding pipelines).
  int num_workers = 1;
  // Ingress shards. 0 = auto: GRADGCL_SERVE_SHARDS when set, else one
  // shard per worker (max(1, num_workers)). 1 reproduces the legacy
  // single-queue engine exactly.
  int num_shards = 0;
  // A batch launches once this many graphs are pending in a shard...
  int max_batch_graphs = 16;
  // ...or once the shard's oldest pending request has waited this long.
  double max_wait_micros = 200.0;
  // Admission bound, partitioned evenly across shards; submissions no
  // shard can hold are rejected.
  int max_queue_graphs = 1024;
  // true: pending requests complete with kShutdown when Shutdown()
  // runs; false (default): the queues are drained before workers exit.
  bool cancel_pending_on_shutdown = false;
};

enum class ServeStatus {
  kOk = 0,
  kOverloaded,    // admission control rejected the request
  kShutdown,      // engine stopped (at submit, or cancelled while queued)
  kUnknownModel,  // no model published under the requested name
};

// Stable names for logs / bench JSON.
const char* ServeStatusName(ServeStatus status);

// Outcome of one Embed() call.
struct EmbedResult {
  ServeStatus status = ServeStatus::kOk;
  // One row per submitted graph (session out_dim columns); empty
  // unless status == kOk.
  Matrix embeddings;
  // Snapshot that computed the embeddings (kOk only): the registry
  // name and the 1-based version Acquire()d by this request's batch.
  std::string model_name;
  uint64_t model_version = 0;
};

class EmbeddingEngine {
 public:
  // Single-model engine over a caller-owned session (`session` must
  // outlive the engine). Internally publishes it as version 1 of model
  // "default" in a private registry — results are tagged accordingly.
  EmbeddingEngine(const InferenceSession& session, const ServeOptions& options);

  // Multi-model engine over `registry` (must outlive the engine).
  // `default_model` names the model plain Embed(graphs) serves; it
  // must already be published.
  EmbeddingEngine(const ModelRegistry& registry,
                  const std::string& default_model,
                  const ServeOptions& options);

  ~EmbeddingEngine();

  EmbeddingEngine(const EmbeddingEngine&) = delete;
  EmbeddingEngine& operator=(const EmbeddingEngine&) = delete;

  // Embeds `graphs` (>= 1) with the default model, blocking until the
  // result is ready or the request is rejected. Safe to call from any
  // thread except the engine's own workers. Admission failures return
  // immediately.
  EmbedResult Embed(const std::vector<Graph>& graphs);

  // Same, against a named registry model; kUnknownModel when nothing
  // was published under `model`.
  EmbedResult Embed(const std::string& model,
                    const std::vector<Graph>& graphs);

  // Stops admission, drains or cancels the shards per the options, and
  // joins the workers. Idempotent; later Embed() calls get kShutdown.
  void Shutdown();

  // Pops and executes one pending batch inline on the calling thread
  // (oldest-arrival shard first, with cross-shard top-up), ignoring
  // the size/deadline launch policy. Returns false when every shard is
  // empty. The manual pump for num_workers == 0.
  bool RunOneBatch();

  // Pending graphs currently queued across all shards (diagnostics;
  // racy by nature).
  int QueueDepth() const;

  const ServeOptions& options() const { return options_; }
  // Resolved shard count (options().num_shards == 0 resolves at
  // construction).
  int num_shards() const { return ingress_.num_shards(); }

 private:
  // One in-flight request, owned by the submitting Embed() frame.
  struct Request : IngressRequest {
    const std::vector<Graph>* graphs = nullptr;
    Matrix result;
    uint64_t version = 0;
  };

  EmbeddingEngine(std::unique_ptr<ModelRegistry> own_registry,
                  const ModelRegistry* registry,
                  const std::string& default_model,
                  const ServeOptions& options);

  EmbedResult EmbedOn(ModelHandle* model, const std::vector<Graph>& graphs);

  // Unions a batch, acquires its model snapshot, runs the forward, and
  // scatters the rows and version tag back into the requests.
  void ExecuteBatch(const std::vector<Request*>& batch);

  const ServeOptions options_;
  // Non-null only for the legacy single-session constructor.
  std::unique_ptr<ModelRegistry> own_registry_;
  const ModelRegistry* registry_;  // own_registry_.get() or caller's
  ModelHandle* default_model_;
  // Last member: its workers call ExecuteBatch, so it starts after and
  // stops before everything above.
  ShardedIngress<Request> ingress_;
};

}  // namespace gradgcl::serve

#endif  // GRADGCL_SERVE_ENGINE_H_
