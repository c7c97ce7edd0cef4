#include "serve/registry.h"

#include <utility>

#include "common/check.h"

namespace gradgcl::serve {

ModelRegistry::ModelRegistry()
    : swaps_total_(obs::MetricsRegistry::Instance().GetCounter("serve/swaps")) {}

uint64_t ModelRegistry::Publish(
    const std::string& name, std::shared_ptr<const InferenceSession> session) {
  GRADGCL_CHECK_MSG(session != nullptr, "Publish needs a session");
  GRADGCL_CHECK_MSG(!name.empty(), "Publish needs a model name");
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<ModelHandle>& slot = models_[name];
  if (slot == nullptr) {
    // Private constructor: can't use make_unique.
    slot.reset(new ModelHandle(name));
  }
  // Publishers are serialized by mu_, so this read needs no handle lock.
  const uint64_t version = slot->snapshot_ == nullptr
                               ? 1
                               : slot->snapshot_->version + 1;
  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->session = std::move(session);
  snapshot->version = version;
  snapshot->model_name = name;
  // The RCU swap: readers mid-Acquire either get the previous snapshot
  // (and keep it alive through their batch) or the new one — never a
  // torn mix. The previous snapshot is released outside the lock.
  std::shared_ptr<const ModelSnapshot> prev;
  {
    std::lock_guard<std::mutex> snapshot_lock(slot->mu_);
    prev = std::exchange(slot->snapshot_, std::move(snapshot));
  }
  swaps_total_.Add(1);
  return version;
}

ModelHandle* ModelRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second.get();
}

std::vector<std::string> ModelRegistry::ModelNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, handle] : models_) names.push_back(name);
  return names;
}

}  // namespace gradgcl::serve
