#include "retrieval/engine.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace gradgcl::retrieval {

namespace {

int ResolveNprobe(const RetrievalOptions& options, const IvfIndex* ivf) {
  if (ivf == nullptr) return 0;
  if (options.nprobe > 0) return std::min(options.nprobe, ivf->nlist());
  return ivf->nprobe();
}

}  // namespace

const char* RetrievalStatusName(RetrievalStatus status) {
  switch (status) {
    case RetrievalStatus::kOk:
      return "ok";
    case RetrievalStatus::kOverloaded:
      return "overloaded";
    case RetrievalStatus::kShutdown:
      return "shutdown";
  }
  return "?";
}

RetrievalEngine::RetrievalEngine(const IvfIndex& index,
                                 const RetrievalOptions& options)
    : RetrievalEngine(nullptr, &index, options) {}

RetrievalEngine::RetrievalEngine(const FlatIndex& index,
                                 const RetrievalOptions& options)
    : RetrievalEngine(&index, nullptr, options) {}

RetrievalEngine::RetrievalEngine(const FlatIndex* flat, const IvfIndex* ivf,
                                 const RetrievalOptions& options)
    : options_(options),
      flat_(flat),
      ivf_(ivf),
      nprobe_(ResolveNprobe(options, ivf)),
      ingress_(
          IngressConfig{options.num_workers, options.num_shards,
                        options.max_batch_queries, options.max_wait_micros,
                        options.max_queue_queries,
                        options.cancel_pending_on_shutdown, "retrieval",
                        "queries"},
          [this](const std::vector<Request*>& batch) { ExecuteBatch(batch); }) {
  GRADGCL_CHECK((flat_ != nullptr) != (ivf_ != nullptr));
}

RetrievalEngine::~RetrievalEngine() { Shutdown(); }

int RetrievalEngine::dim() const {
  return flat_ != nullptr ? flat_->dim() : ivf_->dim();
}

RetrievalResult RetrievalEngine::Search(const Matrix& queries, int k) {
  GRADGCL_CHECK_MSG(queries.rows() >= 1, "Search needs >= 1 query row");
  GRADGCL_CHECK(queries.cols() == dim() && k >= 1);
  Request req;
  req.units = queries.rows();
  req.queries = &queries;
  req.k = k;
  RetrievalResult out;
  switch (ingress_.Submit(&req)) {
    case IngressStatus::kOk:
      out.neighbors = std::move(req.result);
      break;
    case IngressStatus::kOverloaded:
      out.status = RetrievalStatus::kOverloaded;
      break;
    case IngressStatus::kShutdown:
      out.status = RetrievalStatus::kShutdown;
      break;
  }
  return out;
}

void RetrievalEngine::ExecuteBatch(const std::vector<Request*>& batch) {
  // Fan the union's queries out once: a flat work list of (request,
  // row) pairs so ParallelFor amortizes across request boundaries.
  // Each query's scan is serial (index contract), so the fan-out never
  // changes results.
  int total = 0;
  for (const Request* r : batch) total += r->units;
  std::vector<std::pair<Request*, int>> work;
  work.reserve(total);
  for (Request* r : batch) {
    r->result.resize(r->queries->rows());
    for (int qi = 0; qi < r->queries->rows(); ++qi) work.emplace_back(r, qi);
  }
  const int64_t scan_cost =
      flat_ != nullptr
          ? flat_->num_vectors() * static_cast<int64_t>(flat_->dim())
          : (static_cast<int64_t>(ivf_->nlist()) +
             ivf_->num_vectors() * std::max(1, nprobe_) /
                 std::max(1, ivf_->nlist())) *
                ivf_->dim();
  ParallelFor(0, total, /*grain=*/1, scan_cost,
              [&](int64_t begin, int64_t end) {
                for (int64_t w = begin; w < end; ++w) {
                  Request* r = work[w].first;
                  const int qi = work[w].second;
                  const double* q =
                      r->queries->data() +
                      static_cast<int64_t>(qi) * r->queries->cols();
                  r->result[qi] = flat_ != nullptr
                                      ? flat_->Search(q, r->k)
                                      : ivf_->Search(q, r->k, nprobe_);
                }
              });
}

void RetrievalEngine::Shutdown() { ingress_.Shutdown(); }

bool RetrievalEngine::RunOneBatch() { return ingress_.RunOneBatch(); }

int RetrievalEngine::QueueDepth() const { return ingress_.QueueDepth(); }

}  // namespace gradgcl::retrieval
