// Internal parsing core of the graph readers (io.cpp).
//
// Every reader parses one in-memory buffer through a LineCursor: the
// cursor yields CRLF-stripped lines, carries the global 1-based line
// number, and throws the "name:line:col: what" PreconditionError. The
// METIS and edge-list drivers run one cursor per newline-aligned chunk,
// each started at its chunk's global first line, so a given input line
// produces a byte-identical error message at every chunk count — the
// property the differential and fuzz tests (test_csr_differential.cpp,
// test_io_fuzz.cpp) pin.
//
// Not installed; include only from within src/scol/io/.
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "scol/graph/graph.h"
#include "scol/io/io.h"
#include "scol/util/check.h"

namespace scol {
namespace io_detail {

// --- Position-carrying errors. -------------------------------------------
//
// Every reader failure goes through fail_at so the message always looks
// like "name:line:col: what" — the contract docs/FORMATS.md catalogs and
// tests/test_io.cpp asserts. Lines and columns are 1-based; column 1 with
// line 0 means "before the first line" (an empty file).

[[noreturn]] inline void fail_at(const std::string& name, std::size_t line,
                                 std::size_t col, const std::string& what) {
  throw PreconditionError(name + ":" + std::to_string(line) + ":" +
                          std::to_string(col) + ": " + what);
}

// One whitespace-separated token and where it started (1-based column).
// `text` views into the input buffer, so tokens stay valid while that
// buffer is alive.
struct Token {
  std::string_view text;
  std::size_t col = 0;
};

inline std::string str(std::string_view sv) { return std::string(sv); }

// Splits `line` into tokens, reusing `out` (hot loops keep one buffer
// per reader instead of allocating a vector per line).
inline void tokenize(std::string_view line, std::vector<Token>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    if (i >= line.size()) break;
    const std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    out.push_back({line.substr(start, i - start), start + 1});
  }
}

// Line cursor over a newline-aligned chunk of the input buffer. `line`
// is the current line with one trailing '\r' stripped (CRLF); `lineno`
// is its global 1-based number, so a chunk that starts mid-file reports
// the same positions as a cursor over the whole buffer.
class LineCursor {
 public:
  LineCursor(std::string_view text, const std::string& name,
             std::size_t first_line = 1)
      : lineno(first_line - 1), text_(text), name_(name) {}

  // Advances to the next line; false at the end of the chunk.
  bool next() {
    if (pos_ >= text_.size()) return false;
    const char* nl = static_cast<const char*>(
        std::memchr(text_.data() + pos_, '\n', text_.size() - pos_));
    const std::size_t end =
        nl != nullptr ? static_cast<std::size_t>(nl - text_.data())
                      : text_.size();
    line = text_.substr(pos_, end - pos_);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    pos_ = nl != nullptr ? end + 1 : text_.size();
    ++lineno;
    return true;
  }

  // Tokenizes the current line into the reused buffer.
  const std::vector<Token>& tokens() {
    tokenize(line, toks_);
    return toks_;
  }

  // The unread rest of the chunk (starts at a line boundary).
  std::string_view rest() const { return text_.substr(pos_); }

  [[noreturn]] void fail(std::size_t col, const std::string& what) const {
    fail_at(name_, lineno, col, what);
  }
  [[noreturn]] void fail_eof(const std::string& what) const {
    fail_at(name_, lineno + 1, 1, what);
  }

  std::string_view line;
  std::size_t lineno;

 private:
  std::string_view text_;
  const std::string& name_;
  std::size_t pos_ = 0;
  std::vector<Token> toks_;
};

inline std::int64_t parse_int64(const LineCursor& r, const Token& tok,
                                const char* what) {
  std::string_view sv = tok.text;
  // strtoll tolerance: an explicit leading '+' on a digit is accepted.
  if (sv.size() >= 2 && sv[0] == '+' &&
      std::isdigit(static_cast<unsigned char>(sv[1])))
    sv.remove_prefix(1);
  std::int64_t v = 0;
  const auto [end, ec] = std::from_chars(sv.data(), sv.data() + sv.size(), v);
  if (ec != std::errc() || end != sv.data() + sv.size() || sv.empty())
    r.fail(tok.col, std::string("expected an integer ") + what + ", got '" +
                        str(tok.text) + "'");
  return v;
}

// Weights are validated (a stray word is a malformed file) but never
// used, so any numeric token -- "3", "0.5", "1e-3" -- is acceptable.
inline void parse_numeric(const LineCursor& r, const Token& tok,
                          const char* what) {
  const std::string text = str(tok.text);
  char* end = nullptr;
  (void)std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty())
    r.fail(tok.col, std::string("expected a numeric ") + what + ", got '" +
                        str(tok.text) + "'");
}

inline std::int64_t parse_count(const LineCursor& r, const Token& tok,
                                const char* what) {
  const std::int64_t v = parse_int64(r, tok, what);
  if (v < 0)
    r.fail(tok.col, std::string(what) + " must be non-negative, got '" +
                        str(tok.text) + "'");
  return v;
}

// Vertex ids are 32-bit by design (Vertex = int32); counts up to that
// limit build — CSR offsets are 64-bit throughout, so the EDGE count is
// unconstrained — but a declared vertex count past it cannot be
// represented and must fail loudly, not wrap into a small wrong graph.
inline std::int64_t parse_vertex_count(const LineCursor& r,
                                       const Token& tok) {
  const std::int64_t v = parse_count(r, tok, "vertex count");
  if (v > std::numeric_limits<Vertex>::max())
    r.fail(tok.col,
           "vertex count " + str(tok.text) +
               " exceeds the 32-bit vertex-id limit of " +
               std::to_string(std::numeric_limits<Vertex>::max()) +
               " (edge offsets are 64-bit; counts up to the limit build)");
  return v;
}

// Declared edge counts feed `2 * m` adjacency-entry arithmetic; cap them
// so that arithmetic cannot overflow 64 bits (the cap itself is far past
// anything addressable).
inline constexpr std::int64_t kMaxDeclaredEdges =
    std::numeric_limits<std::int64_t>::max() / 2;

inline std::int64_t parse_edge_count(const LineCursor& r, const Token& tok) {
  const std::int64_t v = parse_count(r, tok, "edge count");
  if (v > kMaxDeclaredEdges)
    r.fail(tok.col, "edge count " + str(tok.text) +
                        " exceeds the supported maximum of " +
                        std::to_string(kMaxDeclaredEdges));
  return v;
}

// --- Shared index resolution and edge accumulation. ----------------------
//
// Formats with a declared vertex count (DIMACS, METIS, Matrix Market)
// collect raw ids first and resolve 0- vs 1-based indexing once the whole
// file is seen: a file is 0-based iff it uses id 0, 1-based iff it uses
// id n. Using both is unresolvable and is reported with the lines where
// each extreme first appeared. Self-loops and duplicate edges are
// dropped and counted, never errors — real benchmark files contain both.

// Range-checks raw ids against [lo, n] and records the first line of each
// extreme. The METIS driver keeps one per chunk and folds them in chunk
// order; cursor line numbers are global, so the first chunk that recorded
// an extreme holds its earliest line — the one-chunk state exactly.
struct IdRange {
  std::int64_t n = 0;
  std::size_t first_zero_line = 0;  // line where id 0 first appeared
  std::size_t first_n_line = 0;     // line where id n first appeared

  // `lo` is the smallest id this format ever allows (0 for the
  // auto-detecting formats, 1 for Matrix Market which is firmly 1-based).
  void check_range(const LineCursor& r, std::int64_t id, const Token& tok,
                   std::int64_t lo) {
    if (id < lo || id > n)
      r.fail(tok.col, "vertex id " + str(tok.text) + " out of range [" +
                          std::to_string(lo) + ", " + std::to_string(n) +
                          "] for " + std::to_string(n) + " vertices");
    if (id == 0 && first_zero_line == 0) first_zero_line = r.lineno;
    if (id == n && first_n_line == 0) first_n_line = r.lineno;
  }

  // Folds in the record of a chunk that covers later lines.
  void merge(const IdRange& later) {
    if (first_zero_line == 0) first_zero_line = later.first_zero_line;
    if (first_n_line == 0) first_n_line = later.first_n_line;
  }

  // True for a 0-based file; throws when it uses both extremes. `kind`
  // names the ids in the message ("vertex" or "neighbor").
  bool zero_based(const std::string& name, const char* kind) const {
    if (first_zero_line != 0 && first_n_line != 0)
      fail_at(name, first_n_line, 1,
              std::string("file mixes 0-based and 1-based ") + kind +
                  " ids (id 0 first seen on line " +
                  std::to_string(first_zero_line) + ", id " +
                  std::to_string(n) + " on line " +
                  std::to_string(first_n_line) + ")");
    return first_zero_line != 0;
  }
};

struct EdgeAccumulator : IdRange {
  std::vector<Edge> edges;          // raw, pre-index-resolution
  std::int64_t self_loops = 0;

  void add(const LineCursor& r, const Token& ut, const Token& vt,
           std::int64_t lo) {
    const std::int64_t u = parse_int64(r, ut, "vertex id");
    const std::int64_t v = parse_int64(r, vt, "vertex id");
    check_range(r, u, ut, lo);
    check_range(r, v, vt, lo);
    edges.emplace_back(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }

  // Decides indexing, shifts, dedups, builds. Fills stats.
  Graph finish(const std::string& name, ReadStats& stats) {
    stats.zero_indexed = zero_based(name, "vertex");
    const Vertex shift = stats.zero_indexed ? 0 : 1;
    // Shift straight into the builder (add_edge normalizes orientation);
    // it merges duplicates during its counting-sort CSR fill, so the
    // merged count is the duplicate tally — no intermediate edge vector,
    // no global sort.
    GraphBuilder b(static_cast<Vertex>(n));
    b.reserve(edges.size());
    std::int64_t kept = 0;
    for (auto [u, v] : edges) {
      u = static_cast<Vertex>(u - shift);
      v = static_cast<Vertex>(v - shift);
      if (u == v) {
        ++self_loops;
        continue;
      }
      b.add_edge(u, v);
      ++kept;
    }
    Graph g = b.build();
    stats.duplicate_edges = kept - g.num_edges();
    stats.self_loops = self_loops;
    return g;
  }
};

// --- METIS header and adjacency-line core. -------------------------------

struct MetisHeader {
  std::int64_t n = 0;
  std::int64_t declared_m = 0;
  std::int64_t fmt = 0;
  std::int64_t ncon = 0;
  bool edge_weights = false;
  bool vertex_weights = false;
  bool vertex_sizes = false;
};

// Validates the "<n> <m> [fmt [ncon]]" header tokens (leading comments
// already skipped by the caller).
inline MetisHeader parse_metis_header_tokens(
    const LineCursor& r, const std::vector<Token>& header) {
  if (header.size() < 2 || header.size() > 4)
    r.fail(header[0].col,
           "header must be '<vertices> <edges> [fmt [ncon]]', got " +
               std::to_string(header.size()) + " token(s)");
  MetisHeader h;
  h.n = parse_vertex_count(r, header[0]);
  h.declared_m = parse_edge_count(r, header[1]);
  if (header.size() >= 3) h.fmt = parse_count(r, header[2], "fmt code");
  if (h.fmt != 0 && h.fmt != 1 && h.fmt != 10 && h.fmt != 11 &&
      h.fmt != 100 && h.fmt != 101 && h.fmt != 110 && h.fmt != 111)
    r.fail(header[2].col, "fmt code must be a 3-digit binary flag "
                          "(000..111), got '" + str(header[2].text) + "'");
  h.edge_weights = h.fmt % 10 != 0;
  h.vertex_weights = (h.fmt / 10) % 10 != 0;
  h.vertex_sizes = (h.fmt / 100) % 10 != 0;
  h.ncon = h.vertex_weights ? 1 : 0;
  if (header.size() == 4) {
    h.ncon = parse_count(r, header[3], "ncon");
    if (!h.vertex_weights && h.ncon != 0)
      r.fail(header[3].col, "ncon given but fmt declares no vertex weights");
  }
  return h;
}

// What one chunk of METIS adjacency lines parsed to. The source vertex of
// an entry is its line index, so a chunk stores only the raw neighbor ids
// of its adjacency lines back to back plus one entry count per line; the
// chunks in file order hold every line of the file, one per vertex.
struct MetisChunk {
  IdRange range;
  std::vector<Vertex> ids;            // raw neighbor ids, line after line
  std::vector<std::int64_t> lengths;  // entries per adjacency line
  std::int64_t comments = 0;
};

// Parses one adjacency line into `chunk`: skips the declared weight
// tokens, range-checks every neighbor id and appends the raw ids and the
// line's entry count.
inline void parse_metis_line(const LineCursor& r,
                             const std::vector<Token>& toks,
                             const MetisHeader& h, MetisChunk& chunk) {
  std::size_t i = 0;
  if (h.vertex_sizes) ++i;                         // skip the size token
  i += static_cast<std::size_t>(h.ncon);           // skip vertex weights
  if (i > toks.size())
    r.fail(1, "adjacency line has " + std::to_string(toks.size()) +
                  " token(s) but fmt=" + std::to_string(h.fmt) +
                  " requires " + std::to_string(i) +
                  " leading weight token(s)");
  const std::size_t step = h.edge_weights ? 2 : 1;
  if (h.edge_weights && (toks.size() - i) % 2 != 0)
    r.fail(toks.back().col, "fmt declares edge weights but a neighbor id "
                            "has no weight token after it");
  // METIS ids are canonically 1-based; like DIMACS we defer the decision
  // to the whole file and shift the neighbor ids in finish_metis.
  const std::size_t before = chunk.ids.size();
  for (; i < toks.size(); i += step) {
    const std::int64_t w = parse_int64(r, toks[i], "neighbor id");
    chunk.range.check_range(r, w, toks[i], 0);
    chunk.ids.push_back(static_cast<Vertex>(w));
  }
  chunk.lengths.push_back(
      static_cast<std::int64_t>(chunk.ids.size() - before));
}

// Calls fn(u, begin, end) for every adjacency row of `chunks` in vertex
// order.
template <class Fn>
void for_each_row(const std::vector<MetisChunk>& chunks, const Fn& fn) {
  Vertex u = 0;
  for (const MetisChunk& c : chunks) {
    const Vertex* row = c.ids.data();
    for (const std::int64_t len : c.lengths) {
      fn(u++, row, row + len);
      row += len;
    }
  }
}

// METIS tail: one linear, serial pass over the adjacency rows (the n
// lines the chunks hold, in file order) instead of a global sort.
//  - Rows: shift the neighbor ids to 0-based, drop and count self-loops,
//    sort and dedup each row in place; the removed copies are the
//    duplicate listings.
//  - Transpose: one counting pass lists, for every vertex v, the rows
//    that name v; each such list is sorted because rows are visited in
//    vertex order.
//  - Merge: an undirected edge must be listed once from EACH endpoint. A
//    row entry missing from the vertex's transpose list is an asymmetric
//    (unmirrored) listing — tolerated and counted, and the union of row
//    and transpose list is the vertex's sorted, duplicate-free adjacency.
// `range` is the chunks' folded IdRange; indexing is resolved (and the
// mixed-ids error raised) before anything is allocated.
inline Graph finish_metis(const std::string& name, const IdRange& range,
                          std::vector<MetisChunk>& chunks,
                          ReadStats& stats) {
  stats.zero_indexed = range.zero_based(name, "neighbor");
  const Vertex shift = stats.zero_indexed ? 0 : 1;
  const auto n = static_cast<std::size_t>(range.n);

  // Rows, in place; `lengths` become the deduplicated row lengths.
  std::int64_t self_loops = 0;
  Vertex u = 0;
  for (MetisChunk& c : chunks) {
    Vertex* const ids = c.ids.data();
    std::size_t read = 0;
    std::size_t write = 0;
    for (std::int64_t& len : c.lengths) {
      const std::size_t begin = write;
      for (const std::size_t end = read + static_cast<std::size_t>(len);
           read < end; ++read) {
        const Vertex v = static_cast<Vertex>(ids[read] - shift);
        if (v == u)
          ++self_loops;
        else
          ids[write++] = v;
      }
      std::sort(ids + begin, ids + write);
      const std::size_t kept =
          static_cast<std::size_t>(std::unique(ids + begin, ids + write) -
                                   ids);
      stats.duplicate_edges += static_cast<std::int64_t>(write - kept);
      write = kept;
      len = static_cast<std::int64_t>(write - begin);
      ++u;
    }
    c.ids.resize(write);
  }
  stats.self_loops = self_loops;

  // Transpose: count, prefix-sum, scatter. After the scatter toff[v] is
  // the end of v's list, so shifting right by one gives the offsets.
  std::vector<std::int64_t> toff(n + 1, 0);
  for_each_row(chunks, [&](Vertex, const Vertex* b, const Vertex* e) {
    for (; b != e; ++b) ++toff[static_cast<std::size_t>(*b) + 1];
  });
  for (std::size_t v = 0; v < n; ++v) toff[v + 1] += toff[v];
  std::vector<Vertex> tadj(static_cast<std::size_t>(toff[n]));
  for_each_row(chunks, [&](Vertex w, const Vertex* b, const Vertex* e) {
    for (; b != e; ++b)
      tadj[static_cast<std::size_t>(toff[static_cast<std::size_t>(*b)]++)] =
          w;
  });
  std::copy_backward(toff.begin(), toff.end() - 1, toff.end());
  toff[0] = 0;
  const auto trow = [&](Vertex v) {
    return std::make_pair(tadj.data() + toff[static_cast<std::size_t>(v)],
                          tadj.data() + toff[static_cast<std::size_t>(v) + 1]);
  };

  // Merge: a counting pass sizes each union (transpose list plus the
  // row entries it lacks), then std::set_union writes the unions straight
  // into the final CSR.
  std::vector<std::int64_t> offsets(n + 1, 0);
  for_each_row(chunks, [&](Vertex v, const Vertex* b, const Vertex* e) {
    const auto [tb, te] = trow(v);
    std::int64_t only_row = 0;
    for (const Vertex* t = tb; b != e;) {
      if (t == te || *b < *t) {
        ++only_row;
        ++b;
      } else if (*t < *b) {
        ++t;
      } else {
        ++b;
        ++t;
      }
    }
    stats.asymmetric_edges += only_row;
    offsets[static_cast<std::size_t>(v) + 1] = (te - tb) + only_row;
  });
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<Vertex> adj(static_cast<std::size_t>(offsets[n]));
  for_each_row(chunks, [&](Vertex v, const Vertex* b, const Vertex* e) {
    const auto [tb, te] = trow(v);
    std::set_union(b, e, tb, te,
                   adj.data() + offsets[static_cast<std::size_t>(v)]);
  });
  return Graph::from_csr(static_cast<Vertex>(n), std::move(offsets),
                         std::move(adj));
}

// --- Edge-list line core and tail. ---------------------------------------

// Parses one non-comment, non-blank edge-list line into `raw` (normalized
// min/max id pairs; self-loops counted and dropped).
inline void parse_edge_list_line(
    const LineCursor& r, const std::vector<Token>& toks,
    std::vector<std::pair<std::int64_t, std::int64_t>>& raw,
    std::int64_t& edge_records, std::int64_t& self_loops) {
  if (toks.size() != 2 && toks.size() != 3)
    r.fail(toks[0].col, "edge line must be '<u> <v>' (an optional third "
                        "token is ignored as a weight), got " +
                            std::to_string(toks.size()) + " token(s)");
  const std::int64_t u = parse_int64(r, toks[0], "vertex id");
  const std::int64_t v = parse_int64(r, toks[1], "vertex id");
  if (u < 0 || v < 0)
    r.fail(toks[u < 0 ? 0 : 1].col, "vertex ids must be non-negative, "
                                    "got '" +
                                        str((u < 0 ? toks[0] : toks[1]).text) +
                                        "'");
  if (toks.size() == 3)
    parse_numeric(r, toks[2], "edge weight");  // validated, ignored
  ++edge_records;
  if (u == v) {
    ++self_loops;
    return;
  }
  raw.emplace_back(std::min(u, v), std::max(u, v));
}

// Edge-list tail: dense relabeling of the distinct raw ids in sorted
// order, then the dedup build. `eof_line` is the 1-based line number one
// past the last line (where fail_eof reports file-level errors).
inline Graph finish_edge_list(
    const std::string& name, std::size_t eof_line,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& raw,
    std::int64_t self_loops, ReadStats& stats) {
  // Dense relabeling in sorted id order (deterministic, id-monotone).
  std::vector<std::int64_t> ids;
  ids.reserve(raw.size() * 2);
  for (const auto& [u, v] : raw) {
    ids.push_back(u);
    ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (static_cast<std::int64_t>(ids.size()) >
      std::numeric_limits<Vertex>::max())
    fail_at(name, eof_line, 1,
            "file names " + std::to_string(ids.size()) +
                " distinct vertices, more than the 32-bit vertex-id limit "
                "of " +
                std::to_string(std::numeric_limits<Vertex>::max()));
  const auto dense = [&](std::int64_t id) {
    return static_cast<Vertex>(
        std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  };
  GraphBuilder b(static_cast<Vertex>(ids.size()));
  b.reserve(raw.size());
  for (const auto& [u, v] : raw) b.add_edge(dense(u), dense(v));
  Graph g = b.build();  // merges duplicates in the counting-sort fill
  stats.duplicate_edges =
      static_cast<std::int64_t>(raw.size()) - g.num_edges();
  stats.self_loops = self_loops;
  stats.zero_indexed = !ids.empty() && ids.front() == 0;
  return g;
}

}  // namespace io_detail
}  // namespace scol
