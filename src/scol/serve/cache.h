// Content-addressed caches for the serving layer.
//
// GraphStore memoizes scenario building: (spec, seed) → parsed/generated
// CSR plus its lazily-computed structure probe, indexed a second time by
// content digest so requests can name a graph by hash alone. This is the
// per-spec parse+probe memoization that campaign.cpp grew for file-backed
// scenarios, generalized so one store serves many connections (and the
// campaign runner itself — it is now just another client of this cache).
//
// Next to the resident graphs the store keeps a small identity table:
// (spec, seed) → (digest, max degree) for every generator spec it has
// built. A report-cache key needs only those two values, so the server
// answers a report hit from the identity without touching a graph, and an
// identity outlives the eviction of its CSR. Only generator specs get
// one: they are pure functions of (spec, seed), while a file can change
// between requests.
//
// ReportCache memoizes finished report JSON verbatim: the campaign
// runner's determinism contract (same (graph digest, algorithm, seed,
// canonical params) → byte-identical report) is what makes returning
// cached bytes sound, so the cache stores the exact serialized string and
// hands it back untouched.
//
// All three maps are bounded LRU (capacity 0 = unbounded), safe for
// concurrent use, and export counters for the server's stats request.
// Graph builds happen outside the store lock under a per-entry once-flag,
// so one connection's multi-MB parse never blocks another connection's
// cache hit, and two requests for one graph build it once.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "scol/graph/graph.h"
#include "scol/io/probe.h"
#include "scol/serve/hash.h"

namespace scol {

/// Monotonic counters of one cache (read via snapshot(), so a stats
/// request never tears a half-updated pair).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;  ///< current population
};

/// GraphStore's counters: the cache's, plus the builds behind its misses
/// and the size of the identity table.
struct GraphStoreStats : CacheStats {
  std::uint64_t builds = 0;      ///< scenario builds run (ok or failed)
  double build_ms = 0.0;         ///< their total wall time
  std::uint64_t identities = 0;  ///< remembered (spec, seed) identities
};

/// What a report key needs to know about a generator spec's graph.
struct GraphIdentity {
  Digest digest;
  Vertex max_degree = 0;
};

/// A map that forgets its least recently used entries. Not synchronized:
/// its owner holds a lock around every call.
template <typename K, typename V>
class LruMap {
 public:
  /// The value under `key`, now the most recently used, or nullptr.
  V* find(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// The value under `key` without changing the recency order.
  const V* peek(const K& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  /// Inserts `value` as the most recently used entry; returns false and
  /// changes nothing when `key` is already present.
  bool insert(const K& key, V value) {
    if (index_.count(key) != 0) return false;
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
    return true;
  }

  /// Drops least recently used entries until at most `capacity` remain
  /// (0 = unbounded), handing each victim to `on_evict`.
  template <typename OnEvict>
  void evict_to(std::size_t capacity, OnEvict&& on_evict) {
    if (capacity == 0) return;
    while (index_.size() > capacity) {
      on_evict(order_.back().second);
      index_.erase(order_.back().first);
      order_.pop_back();
    }
  }

  std::size_t size() const { return index_.size(); }

 private:
  std::list<std::pair<K, V>> order_;  // front = most recently used
  std::map<K, typename std::list<std::pair<K, V>>::iterator> index_;
};

/// One cached graph: the digest-addressed CSR, a lazily probed structure
/// summary, or the build error if the scenario failed.
class GraphEntry {
 public:
  /// Content digest of the built graph (zero digest when errored).
  const Digest& digest() const { return digest_; }
  /// The graph, or nullptr when the build failed (see error()).
  const Graph* graph() const { return graph_.get(); }
  std::shared_ptr<const Graph> shared_graph() const { return graph_; }
  const std::string& error() const { return error_; }

  /// The structure probe, computed once per entry on first request (the
  /// first caller's options win — matching the one-campaign-one-options
  /// usage — so the memo is a pure function of the graph per store).
  /// Requires a successfully built graph.
  const GraphProbe& probe(const ProbeOptions& options);

 private:
  friend class GraphStore;
  Digest digest_;
  std::shared_ptr<const Graph> graph_;
  std::string error_;
  bool indexed_ = false;  // listed in by_digest_; guarded by mu_
  std::once_flag build_once_;
  std::once_flag probe_once_;
  std::optional<GraphProbe> probe_;
};

class GraphStore {
 public:
  /// The cache key of `spec` under `seed`: (spec, seed), except that a
  /// file-backed spec ignores its seed (every seed is the same parse), so
  /// all its seeds share the key (spec, 0).
  using Key = std::pair<std::string, std::uint64_t>;
  static Key key_of(const std::string& spec, std::uint64_t seed);

  /// capacity = maximum resident graphs, identity_capacity = maximum
  /// remembered identities (0 = unbounded for either; both explicit, so
  /// no caller leaves the identity table unbounded by accident). Evicted
  /// entries stay alive for whoever still holds their shared_ptr.
  GraphStore(std::size_t capacity, std::size_t identity_capacity)
      : capacity_(capacity), identity_capacity_(identity_capacity) {}

  /// The graph of `spec` under `seed`, built on first request. File-backed
  /// specs ignore their seed (every seed is the same parse), mirroring
  /// campaign.cpp. Build failures are cached too — a bad path errors once,
  /// not once per request. `cache_hit`, when given, reports whether this
  /// call found the entry already in the cache (so it did not build).
  std::shared_ptr<GraphEntry> get_scenario(const std::string& spec,
                                           std::uint64_t seed,
                                           bool* cache_hit = nullptr);

  /// The remembered identity of a generator spec's graph under `seed`,
  /// resident or not; nullopt for file specs and for graphs this store
  /// has not built (or has forgotten). Counts in no hit/miss counter.
  std::optional<GraphIdentity> identity(const std::string& spec,
                                        std::uint64_t seed);

  /// Content-addressed lookup: a resident entry with this digest (the
  /// oldest, when several specs built the same graph), or nullptr (the
  /// store never rebuilds from a digest — it cannot).
  std::shared_ptr<GraphEntry> find_digest(const Digest& digest);

  GraphStoreStats stats() const;

 private:
  const std::size_t capacity_;
  const std::size_t identity_capacity_;
  mutable std::mutex mu_;
  LruMap<Key, std::shared_ptr<GraphEntry>> entries_;
  // Every resident built entry by digest, oldest first (twins share one).
  std::map<Digest, std::vector<std::shared_ptr<GraphEntry>>> by_digest_;
  LruMap<Key, GraphIdentity> identities_;
  GraphStoreStats stats_;
};

/// LRU map from a canonical request key to the exact serialized report —
/// bytes in, identical bytes out.
class ReportCache {
 public:
  explicit ReportCache(std::size_t capacity = 0) : capacity_(capacity) {}

  /// The cached report for `key`, or nullptr (counts a hit/miss).
  std::shared_ptr<const std::string> lookup(const std::string& key);

  /// Stores `report` under `key` (first writer wins on a race; the value
  /// is deterministic either way).
  void insert(const std::string& key, std::string report);

  CacheStats stats() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  LruMap<std::string, std::shared_ptr<const std::string>> entries_;
  CacheStats stats_;
};

}  // namespace scol
