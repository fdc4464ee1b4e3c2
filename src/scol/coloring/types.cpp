#include "scol/coloring/types.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <set>

namespace scol {

ListAssignment ListAssignment::from_lists(
    const std::vector<std::vector<Color>>& ls) {
  ListAssignment out;
  std::size_t total = 0;
  for (const auto& l : ls) total += l.size();
  out.reserve(static_cast<Vertex>(ls.size()), total);
  for (const auto& l : ls) out.append(l);
  return out;
}

std::vector<std::vector<Color>> to_lists(const ListAssignment& lists) {
  std::vector<std::vector<Color>> out(static_cast<std::size_t>(lists.size()));
  for (Vertex v = 0; v < lists.size(); ++v) {
    const auto l = lists.of(v);
    out[static_cast<std::size_t>(v)].assign(l.begin(), l.end());
  }
  return out;
}

std::size_t ListAssignment::min_list_size() const {
  if (size() == 0) return 0;
  std::size_t m = ~static_cast<std::size_t>(0);
  for (Vertex v = 0; v < size(); ++v) m = std::min(m, of(v).size());
  return m;
}

void ListAssignment::append(std::span<const Color> list) {
  SCOL_REQUIRE(std::adjacent_find(list.begin(), list.end(),
                                  std::greater_equal<>()) == list.end(),
               + "lists must be sorted and duplicate-free");
  colors_.insert(colors_.end(), list.begin(), list.end());
  offsets_.push_back(static_cast<std::int64_t>(colors_.size()));
}

ListAssignment uniform_lists(Vertex n, Color k) {
  SCOL_REQUIRE(n >= 0 && k >= 1);
  std::vector<Color> base(static_cast<std::size_t>(k));
  for (Color c = 0; c < k; ++c) base[static_cast<std::size_t>(c)] = c;
  ListAssignment out;
  out.reserve(n, static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  for (Vertex v = 0; v < n; ++v) {
    out.colors_.insert(out.colors_.end(), base.begin(), base.end());
    out.offsets_.push_back(static_cast<std::int64_t>(out.colors_.size()));
  }
  return out;
}

ListAssignment random_lists(Vertex n, Color k, Color palette_size, Rng& rng) {
  SCOL_REQUIRE(k >= 1 && palette_size >= k);
  const auto p = static_cast<std::size_t>(palette_size);
  ListAssignment out;
  out.reserve(n, static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  // Each vertex draws Rng::shuffle's full Fisher-Yates over the palette
  // (P - 1 draws), which every random-lists report and the rng state after
  // the lists depend on. Each draw uses a divisor precomputed for its
  // bound instead of a divide, and the k chosen colors come out sorted
  // through a P-bit bitmap.
  std::vector<Divisor> divisors;
  divisors.reserve(p);
  for (std::size_t b = 2; b <= p; ++b) divisors.emplace_back(b);
  std::vector<Color> palette(p);
  for (Color c = 0; c < palette_size; ++c)
    palette[static_cast<std::size_t>(c)] = c;
  std::vector<std::uint64_t> chosen((p + 63) / 64, 0);
  std::vector<Color> list;
  list.reserve(static_cast<std::size_t>(k));
  for (Vertex v = 0; v < n; ++v) {
    for (std::size_t i = p; i > 1; --i)
      std::swap(palette[i - 1], palette[rng.below(divisors[i - 2])]);
    for (const Color color :
         std::span(palette).first(static_cast<std::size_t>(k))) {
      const auto c = static_cast<std::size_t>(color);
      chosen[c / 64] |= std::uint64_t{1} << (c % 64);
    }
    list.clear();
    for (std::size_t w = 0; w < chosen.size(); ++w) {
      for (std::uint64_t bits = chosen[w]; bits != 0; bits &= bits - 1)
        list.push_back(static_cast<Color>(64 * w + std::countr_zero(bits)));
      chosen[w] = 0;
    }
    out.append(list);
  }
  return out;
}

Coloring empty_coloring(Vertex n) {
  return Coloring(static_cast<std::size_t>(n), kUncolored);
}

bool is_proper(const Graph& g, const Coloring& c) {
  if (static_cast<Vertex>(c.size()) != g.num_vertices()) return false;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (c[static_cast<std::size_t>(v)] == kUncolored) return false;
  return is_partial_proper(g, c);
}

bool is_partial_proper(const Graph& g, const Coloring& c) {
  if (static_cast<Vertex>(c.size()) != g.num_vertices()) return false;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const Color cv = c[static_cast<std::size_t>(v)];
    if (cv == kUncolored) continue;
    for (Vertex w : g.neighbors(v)) {
      if (w > v && c[static_cast<std::size_t>(w)] == cv) return false;
    }
  }
  return true;
}

bool respects_lists(const Coloring& c, const ListAssignment& lists) {
  if (static_cast<Vertex>(c.size()) != lists.size()) return false;
  for (std::size_t v = 0; v < c.size(); ++v) {
    if (c[v] == kUncolored) continue;
    if (!list_contains(lists.of(static_cast<Vertex>(v)), c[v])) return false;
  }
  return true;
}

Vertex count_colors(const Coloring& c) {
  std::set<Color> used;
  for (Color x : c)
    if (x != kUncolored) used.insert(x);
  return static_cast<Vertex>(used.size());
}

bool list_contains(std::span<const Color> list, Color x) {
  return std::binary_search(list.begin(), list.end(), x);
}

FreeColors::FreeColors(std::span<const Color> list,
                       std::span<const Vertex> neighbors,
                       const Coloring& coloring, std::vector<std::size_t>& hits)
    : list_(list) {
  hits.clear();
  for (const Vertex w : neighbors) {
    const Color cw = coloring[static_cast<std::size_t>(w)];
    if (cw == kUncolored) continue;
    const auto it = std::lower_bound(list.begin(), list.end(), cw);
    if (it != list.end() && *it == cw)
      hits.push_back(static_cast<std::size_t>(it - list.begin()));
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  hits_ = hits;
}

}  // namespace scol
