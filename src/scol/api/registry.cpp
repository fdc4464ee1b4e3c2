#include "scol/api/registry.h"

#include <algorithm>

namespace scol {
namespace {

// Default guarantee for every list-respecting algorithm: a coloring drawn
// from the lists can use at most the number of distinct colors across
// them (equal to k for uniform k-lists).
std::int64_t distinct_list_colors(const ColoringRequest& req) {
  if (req.lists == nullptr) return -1;
  const ListAssignment& lists = *req.lists;
  if (lists.size() == 0) return 0;
  // Fast path for the dominant shape, uniform lists: every list equals
  // the first, so the distinct count is its size (lists are canonical —
  // sorted and duplicate-free).
  const auto first = lists.of(0);
  bool all_equal = true;
  for (Vertex v = 1; v < lists.size() && all_equal; ++v) {
    const auto l = lists.of(v);
    all_equal = std::equal(l.begin(), l.end(), first.begin(), first.end());
  }
  if (all_equal) return static_cast<std::int64_t>(first.size());
  const auto flat = lists.flat();
  std::vector<Color> all(flat.begin(), flat.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return static_cast<std::int64_t>(all.size());
}

}  // namespace

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry* registry = [] {
    auto* r = new AlgorithmRegistry();
    register_builtin_algorithms(*r);
    return r;
  }();
  return *registry;
}

void AlgorithmRegistry::add(AlgorithmInfo info) {
  SCOL_REQUIRE(!info.name.empty(), + "algorithm name must be non-empty");
  SCOL_REQUIRE(static_cast<bool>(info.run),
               + "algorithm must have a run function");
  SCOL_REQUIRE(find(info.name) == nullptr,
               + ("duplicate algorithm name '" + info.name + "'"));
  if (!info.color_bound && info.caps.needs_lists)
    info.color_bound = distinct_list_colors;
  algorithms_.push_back(std::move(info));
}

const AlgorithmInfo* AlgorithmRegistry::find(const std::string& name) const {
  for (const auto& a : algorithms_)
    if (a.name == name) return &a;
  return nullptr;
}

const AlgorithmInfo& AlgorithmRegistry::at(const std::string& name) const {
  const AlgorithmInfo* a = find(name);
  if (a == nullptr) {
    std::string known;
    for (const auto& n : names()) known += (known.empty() ? "" : ", ") + n;
    throw PreconditionError("unknown algorithm '" + name + "'; known: " +
                            known);
  }
  return *a;
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(algorithms_.size());
  for (const auto& a : algorithms_) out.push_back(a.name);
  std::sort(out.begin(), out.end());
  return out;
}

std::string why_not_k(const EligibilityQuery& q, Vertex needed,
                      const char* what) {
  if (q.k >= needed) return "";
  return std::string("needs ") + what + " >= " + std::to_string(needed) +
         ", got " + std::to_string(q.k);
}

std::string algorithm_skip_reason(const AlgorithmInfo& info,
                                  const EligibilityQuery& query) {
  if (!info.precondition) return "";
  SCOL_REQUIRE(query.probe != nullptr && query.params != nullptr,
               + "eligibility query needs a probe and params");
  std::string reason = info.precondition(query);
  if (!reason.empty() || !info.min_k) return reason;
  return why_not_k(query, info.min_k(*query.params), "k");
}

Vertex effective_k(const AlgorithmInfo& info, Vertex k, Vertex max_degree,
                   const ParamBag& params) {
  if (k > 0 || !info.caps.needs_lists) return k;
  Vertex out = std::max<Vertex>(3, max_degree + 1);
  if (info.min_k) out = std::max(out, info.min_k(params));
  return out;
}

}  // namespace scol
