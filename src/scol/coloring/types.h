// Core coloring types: colorings, list assignments, and validity checks.
//
// Colors are arbitrary non-negative integers (the paper's lists need not be
// {1..k}); kUncolored marks vertices not yet colored.
#pragma once

#include <span>
#include <vector>

#include "scol/graph/graph.h"
#include "scol/util/rng.h"

namespace scol {

using Color = std::int32_t;
inline constexpr Color kUncolored = -1;

using Coloring = std::vector<Color>;

/// A k-list-assignment L: of(v) is the set of allowed colors of v (paper
/// §1.2: |L(v)| >= k for a k-list-assignment).
///
/// Storage is flat CSR (offsets + one contiguous color array), mirroring
/// Graph: every per-vertex palette is a span into one allocation, so a
/// sweep over all lists is a linear scan, not a pointer chase. Lists are
/// appended in vertex order via append(), which checks each once for being
/// sorted and duplicate-free, so kernels binary-search them unchecked;
/// from_lists() converts the vector-of-vectors shape of tests and callers.
class ListAssignment {
 public:
  ListAssignment() = default;

  /// Number of vertices with a list.
  Vertex size() const { return static_cast<Vertex>(offsets_.size()) - 1; }
  bool empty() const { return offsets_.size() <= 1; }

  /// The (sorted, duplicate-free) list of v, zero-copy.
  std::span<const Color> of(Vertex v) const {
    return {colors_.data() + offsets_[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1] -
                                     offsets_[static_cast<std::size_t>(v)])};
  }

  /// Appends the list of vertex size() (lists are built in vertex order).
  /// Throws PreconditionError unless `list` is sorted and duplicate-free.
  void append(std::span<const Color> list);

  /// Pre-sizes the backing arrays (n lists, `total_colors` colors overall).
  void reserve(Vertex n, std::size_t total_colors) {
    offsets_.reserve(static_cast<std::size_t>(n) + 1);
    colors_.reserve(total_colors);
  }

  /// Converts from the vector-of-vectors shape.
  static ListAssignment from_lists(const std::vector<std::vector<Color>>& ls);

  /// All colors of all lists, concatenated in vertex order.
  std::span<const Color> flat() const { return colors_; }

  /// Smallest list size (the k of the k-list-assignment).
  std::size_t min_list_size() const;

 private:
  // Writes its n copies of 0..k-1, sorted by construction, without
  // append()'s per-list check.
  friend ListAssignment uniform_lists(Vertex n, Color k);

  std::vector<std::int64_t> offsets_{0};  // size n+1
  std::vector<Color> colors_;             // flat, per-vertex slices
};

/// The vector-of-vectors shape of an assignment, for algorithms that
/// mutate lists in place (the ERT construction shrinks its AvailableLists).
std::vector<std::vector<Color>> to_lists(const ListAssignment& lists);

/// The identical-lists assignment {0..k-1} for every vertex: list-coloring
/// with these lists is exactly ordinary k-coloring.
ListAssignment uniform_lists(Vertex n, Color k);

/// Random k-subsets of a palette of `palette_size` colors.
ListAssignment random_lists(Vertex n, Color k, Color palette_size, Rng& rng);

/// All vertices uncolored.
Coloring empty_coloring(Vertex n);

/// True iff every vertex is colored and no edge is monochromatic.
bool is_proper(const Graph& g, const Coloring& c);

/// True iff no edge with both ends colored is monochromatic (partial
/// colorings allowed).
bool is_partial_proper(const Graph& g, const Coloring& c);

/// True iff every colored vertex uses a color from its list.
bool respects_lists(const Coloring& c, const ListAssignment& lists);

/// Number of distinct colors used (ignores uncolored vertices).
Vertex count_colors(const Coloring& c);

/// True iff color x is in the (sorted) list.
bool list_contains(std::span<const Color> list, Color x);

/// The free colors of a vertex: its list minus its colored neighbours'
/// colors, read in O(deg log |L|) without copying the list. One binary
/// search per colored neighbour finds the sorted, distinct list positions
/// ("hits") of their colors, kept in the caller's scratch `hits`.
class FreeColors {
 public:
  FreeColors(std::span<const Color> list, std::span<const Vertex> neighbors,
             const Coloring& coloring, std::vector<std::size_t>& hits);
  std::size_t size() const { return list_.size() - hits_.size(); }

  /// The r-th free color in list order: list[r], r stepped past each hit.
  Color at(std::size_t r) const {
    for (const std::size_t h : hits_)
      if (h <= r) ++r;
    return list_[r];
  }

  /// Walks the free colors in list order, stopping with false at the
  /// first one pred rejects.
  template <typename Pred>
  bool all_of(Pred&& pred) const {
    for (std::size_t i = 0, h = 0; i < list_.size(); ++i) {
      if (h < hits_.size() && hits_[h] == i)
        ++h;
      else if (!pred(list_[i]))
        return false;
    }
    return true;
  }

 private:
  std::span<const Color> list_;
  std::span<const std::size_t> hits_;
};

}  // namespace scol
