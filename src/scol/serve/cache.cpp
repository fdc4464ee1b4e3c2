#include "scol/serve/cache.h"

#include <chrono>

#include "scol/api/scenario.h"
#include "scol/util/rng.h"

namespace scol {

const GraphProbe& GraphEntry::probe(const ProbeOptions& options) {
  SCOL_REQUIRE(graph_ != nullptr, + "probe() needs a built graph");
  std::call_once(probe_once_,
                 [&] { probe_ = probe_graph(*graph_, options); });
  return *probe_;
}

GraphStore::Key GraphStore::key_of(const std::string& spec,
                                   std::uint64_t seed) {
  // File scenarios ignore their Rng: every seed is the same parse, so
  // normalizing the key to seed 0 makes a multi-seed sweep pay the
  // (dominant) parse cost once.
  return Key{spec, is_file_spec(spec) ? 0 : seed};
}

std::shared_ptr<GraphEntry> GraphStore::get_scenario(const std::string& spec,
                                                     std::uint64_t seed,
                                                     bool* cache_hit) {
  const bool file = is_file_spec(spec);
  const Key key = key_of(spec, seed);

  std::shared_ptr<GraphEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto* found = entries_.find(key)) {
      ++stats_.hits;
      if (cache_hit != nullptr) *cache_hit = true;
      entry = *found;
    } else {
      ++stats_.misses;
      if (cache_hit != nullptr) *cache_hit = false;
      // Insert a placeholder under the lock; the build itself runs
      // outside it under the entry's own once-flag, so a slow parse
      // never serializes the store — and every requester (including
      // cache hits that raced the builder) rendezvouses on that flag
      // before reading the entry.
      entry = std::make_shared<GraphEntry>();
      entries_.insert(key, entry);
      stats_.entries = entries_.size();
    }
  }

  std::call_once(entry->build_once_, [&] {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      Rng rng(seed);
      auto graph = std::make_shared<const Graph>(build_scenario(spec, rng));
      entry->digest_ = hash_graph(*graph);
      entry->graph_ = std::move(graph);
    } catch (const std::exception& e) {
      entry->error_ = e.what();
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.builds;
    stats_.build_ms += ms;
    // Index by content only if this entry still owns its key (a tiny
    // capacity can evict an entry while it builds; the evicted build
    // stays usable for its requesters, just unindexed). Twins are all
    // indexed: a digest finds its graph while any of them is resident.
    const auto* owner = entries_.peek(key);
    if (entry->graph_ != nullptr && owner != nullptr && *owner == entry) {
      by_digest_[entry->digest_].push_back(entry);
      entry->indexed_ = true;
    }
    entries_.evict_to(capacity_, [&](std::shared_ptr<GraphEntry>& victim) {
      if (victim->indexed_) {
        const auto twins = by_digest_.find(victim->digest_);
        std::erase(twins->second, victim);
        if (twins->second.empty()) by_digest_.erase(twins);
      }
      ++stats_.evictions;
    });
    stats_.entries = entries_.size();
  });

  // Remember (or refresh) the identity of every generator graph served,
  // so it outlives the CSR's eviction.
  if (!file && entry->graph_ != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (identities_.find(key) == nullptr) {
      identities_.insert(
          key, GraphIdentity{entry->digest_, entry->graph_->max_degree()});
      identities_.evict_to(identity_capacity_, [](GraphIdentity&) {});
      stats_.identities = identities_.size();
    }
  }
  return entry;
}

std::optional<GraphIdentity> GraphStore::identity(const std::string& spec,
                                                  std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  const GraphIdentity* known = identities_.find(Key{spec, seed});
  if (known == nullptr) return std::nullopt;
  return *known;
}

std::shared_ptr<GraphEntry> GraphStore::find_digest(const Digest& digest) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_digest_.find(digest);
  if (it == by_digest_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second.front();
}

GraphStoreStats GraphStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::shared_ptr<const std::string> ReportCache::lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto* found = entries_.find(key);
  if (found == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return *found;
}

void ReportCache::insert(const std::string& key, std::string report) {
  std::lock_guard<std::mutex> lock(mu_);
  // First writer wins.
  if (!entries_.insert(
          key, std::make_shared<const std::string>(std::move(report))))
    return;
  entries_.evict_to(capacity_, [&](auto&) { ++stats_.evictions; });
  stats_.entries = entries_.size();
}

CacheStats ReportCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace scol
