#include "scol/io/io.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "scol/io/reader_detail.h"
#include "scol/util/check.h"
#include "scol/util/executor.h"
#include "scol/util/file.h"

namespace scol {
namespace {

using io_detail::EdgeAccumulator;
using io_detail::LineCursor;
using io_detail::MetisChunk;
using io_detail::Token;
using io_detail::fail_at;
using io_detail::str;

// --- The input buffer -----------------------------------------------------

// Reads the rest of `in` into one buffer with plain reads. `size_hint`
// (0 when unknown, e.g. a pipe) only presizes the buffer.
std::string read_all(std::istream& in, const std::string& name,
                     std::size_t size_hint) {
  std::string text;
  text.reserve(size_hint);
  std::array<char, 1 << 16> block;
  while (in.read(block.data(), block.size()) || in.gcount() > 0)
    text.append(block.data(), static_cast<std::size_t>(in.gcount()));
  if (in.bad()) throw PreconditionError(name + ": read failed");
  return text;
}

// Frees the input buffer; every driver calls this before its finish step
// so the text and the finished graph are never resident together.
void release(std::string& text) { std::string().swap(text); }

// Advances past '%' comment lines (counted) and blank lines to the next
// line that has tokens; false at the end of the input.
bool next_data_line(LineCursor& r, std::int64_t& comment_lines) {
  while (r.next()) {
    if (!r.line.empty() && r.line[0] == '%') {
      ++comment_lines;
      continue;
    }
    if (!r.tokens().empty()) return true;
  }
  return false;
}

// --- Chunked parsing (METIS, edge lists) ----------------------------------

// Splits `text` into up to `parts` newline-aligned chunks. Every chunk
// begins at a line start, so no line spans two chunks; short texts yield
// fewer chunks, and an empty text one empty chunk.
std::vector<std::string_view> split_lines(std::string_view text, int parts) {
  std::vector<std::string_view> chunks;
  std::size_t begin = 0;
  for (int i = 1; i < parts; ++i) {
    const std::size_t target = std::max(
        begin, text.size() * static_cast<std::size_t>(i) /
                   static_cast<std::size_t>(parts));
    if (target >= text.size()) break;
    const char* nl = static_cast<const char*>(
        std::memchr(text.data() + target, '\n', text.size() - target));
    if (nl == nullptr) break;
    const std::size_t cut = static_cast<std::size_t>(nl - text.data()) + 1;
    if (cut >= text.size()) break;
    chunks.push_back(text.substr(begin, cut - begin));
    begin = cut;
  }
  chunks.push_back(text.substr(begin));
  return chunks;
}

// A position in the body: a global 1-based line number and the number of
// data lines (METIS: not '%'-led) before it.
struct BodyPos {
  std::size_t line = 0;
  std::int64_t data = 0;
};

// Parses `body` on a ThreadPoolExecutor(threads): one newline-aligned
// chunk per pool thread, each through parse(cursor, part, start) with a
// cursor that begins at the chunk's global first line. A counting
// pre-pass over every chunk gives each one its `start`. Returns the parts
// in file order and sets `end` to the position one past the last line. A
// parse error propagates from the lowest-index chunk that threw, which
// holds the earliest offending line (ThreadPoolExecutor::run_chunks).
template <class Part, class Parse>
std::vector<Part> parse_chunks(std::string_view body, const std::string& name,
                               std::size_t first_line, int threads,
                               BodyPos& end, const Parse& parse) {
  const ThreadPoolExecutor pool(threads);
  const std::vector<std::string_view> chunks =
      split_lines(body, pool.num_threads());
  std::vector<BodyPos> counts(chunks.size());
  pool.run_chunks(chunks.size(), [&](std::size_t i) {
    LineCursor r(chunks[i], name);
    while (r.next())
      if (r.line.empty() || r.line[0] != '%') ++counts[i].data;
    counts[i].line = r.lineno;
  });
  std::vector<BodyPos> starts(chunks.size());
  end = BodyPos{first_line, 0};
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    starts[i] = end;
    end.line += counts[i].line;
    end.data += counts[i].data;
  }
  std::vector<Part> parts(chunks.size());
  pool.run_chunks(chunks.size(), [&](std::size_t i) {
    LineCursor r(chunks[i], name, starts[i].line);
    parse(r, parts[i], starts[i]);
  });
  return parts;
}

// --- DIMACS .col ----------------------------------------------------------

ReadResult read_dimacs(std::string& text, const std::string& name) {
  ReadResult out;
  out.stats.format = GraphFormat::kDimacs;
  LineCursor r(text, name);
  EdgeAccumulator acc;
  bool have_problem = false;
  std::int64_t declared_m = 0;

  while (r.next()) {
    if (r.line.empty()) continue;
    const std::vector<Token>& toks = r.tokens();
    if (toks.empty()) continue;
    const std::string_view kind = toks[0].text;
    if (kind == "c") {
      ++out.stats.comment_lines;
    } else if (kind == "p") {
      if (have_problem)
        r.fail(toks[0].col, "second 'p' problem line (first on an earlier "
                            "line); a DIMACS file has exactly one");
      if (toks.size() != 4)
        r.fail(toks[0].col,
               "problem line must be 'p edge <vertices> <edges>', got " +
                   std::to_string(toks.size()) + " token(s)");
      if (toks[1].text != "edge" && toks[1].text != "edges" &&
          toks[1].text != "col")
        r.fail(toks[1].col, "unknown problem type '" + str(toks[1].text) +
                                "' (expected 'edge')");
      acc.n = io_detail::parse_vertex_count(r, toks[2]);
      declared_m = io_detail::parse_edge_count(r, toks[3]);
      have_problem = true;
    } else if (kind == "e") {
      if (!have_problem)
        r.fail(toks[0].col, "edge line before the 'p' problem line");
      if (toks.size() != 3)
        r.fail(toks[0].col, "edge line must be 'e <u> <v>', got " +
                                std::to_string(toks.size()) + " token(s)");
      acc.add(r, toks[1], toks[2], 0);
    } else {
      r.fail(toks[0].col, "unknown DIMACS line type '" + str(kind) +
                              "' (expected 'c', 'p', or 'e')");
    }
  }
  if (!have_problem)
    r.fail_eof("file ends without a 'p edge <vertices> <edges>' line");
  out.stats.declared_n = acc.n;
  out.stats.declared_m = declared_m;
  out.stats.edge_records = static_cast<std::int64_t>(acc.edges.size());
  if (out.stats.edge_records != declared_m)
    r.fail_eof("problem line declared " + std::to_string(declared_m) +
               " edges but the file contains " +
               std::to_string(out.stats.edge_records) + " 'e' lines");
  release(text);
  out.graph = acc.finish(name, out.stats);
  return out;
}

// --- METIS / Chaco adjacency ---------------------------------------------

ReadResult read_metis(std::string& text, const std::string& name,
                      int threads) {
  ReadResult out;
  out.stats.format = GraphFormat::kMetis;
  // Header: "<n> <m> [fmt [ncon]]" after any leading % comments.
  LineCursor head(text, name);
  if (!next_data_line(head, out.stats.comment_lines))
    head.fail_eof("file ends before the '<vertices> <edges> [fmt]' header");
  const io_detail::MetisHeader h =
      io_detail::parse_metis_header_tokens(head, head.tokens());

  // One adjacency line per vertex (blank = isolated); % comments anywhere.
  // A chunk's vertex ids continue from the data lines before it.
  BodyPos end;
  std::vector<MetisChunk> parts = parse_chunks<MetisChunk>(
      head.rest(), name, head.lineno + 1, threads, end,
      [&](LineCursor& r, MetisChunk& part, BodyPos start) {
        part.range.n = h.n;
        std::int64_t vertex = start.data;
        while (r.next()) {
          if (!r.line.empty() && r.line[0] == '%') {
            ++part.comments;
            continue;
          }
          const std::vector<Token>& toks = r.tokens();
          if (vertex >= h.n) {
            // Past the declared adjacency lines only blanks and comments
            // may follow.
            if (!toks.empty())
              r.fail(1, "data after the last of the " + std::to_string(h.n) +
                            " declared adjacency lines");
          } else {
            io_detail::parse_metis_line(r, toks, h, part);
          }
          ++vertex;
        }
      });

  if (end.data < h.n)
    fail_at(name, end.line, 1,
            "file ends after " + std::to_string(end.data) + " of the " +
                std::to_string(h.n) + " declared adjacency lines");
  // Chunks cover increasing lines, so folding their id ranges in order
  // keeps the first line that saw id 0 (or id n).
  io_detail::IdRange range;
  range.n = h.n;
  std::int64_t entries = 0;
  for (const MetisChunk& p : parts) {
    range.merge(p.range);
    entries += static_cast<std::int64_t>(p.ids.size());
    out.stats.comment_lines += p.comments;
  }
  if (entries != 2 * h.declared_m)
    fail_at(name, end.line, 1,
            "header declared " + std::to_string(h.declared_m) + " edges (" +
                std::to_string(2 * h.declared_m) +
                " adjacency entries; each edge appears twice) but the "
                "lists contain " + std::to_string(entries) + " entries");
  out.stats.declared_n = h.n;
  out.stats.declared_m = h.declared_m;
  out.stats.edge_records = entries;
  release(text);
  out.graph = io_detail::finish_metis(name, range, parts, out.stats);
  return out;
}

// --- Matrix Market coordinate --------------------------------------------

ReadResult read_matrix_market(std::string& text, const std::string& name) {
  ReadResult out;
  out.stats.format = GraphFormat::kMatrixMarket;
  LineCursor r(text, name);
  if (!r.next()) r.fail_eof("empty file (expected a %%MatrixMarket header)");
  std::vector<Token> head = r.tokens();
  if (head.empty() || head[0].text != "%%MatrixMarket")
    r.fail(1, "first line must start with '%%MatrixMarket', got '" +
                  (head.empty() ? std::string() : str(head[0].text)) + "'");
  if (head.size() != 5)
    r.fail(head[0].col,
           "header must be '%%MatrixMarket matrix coordinate <field> "
           "<symmetry>', got " + std::to_string(head.size()) + " token(s)");
  auto lower = [](std::string_view sv) {
    std::string s(sv);
    for (char& c : s) c = static_cast<char>(std::tolower(
        static_cast<unsigned char>(c)));
    return s;
  };
  if (lower(head[1].text) != "matrix")
    r.fail(head[1].col, "unsupported object '" + str(head[1].text) +
                            "' (only 'matrix')");
  if (lower(head[2].text) != "coordinate")
    r.fail(head[2].col, "unsupported format '" + str(head[2].text) +
                            "' (only sparse 'coordinate'; dense 'array' "
                            "matrices are not graphs)");
  const std::string field = lower(head[3].text);
  std::size_t value_tokens = 0;
  if (field == "pattern") value_tokens = 0;
  else if (field == "real" || field == "integer" || field == "double")
    value_tokens = 1;
  else if (field == "complex") value_tokens = 2;
  else
    r.fail(head[3].col, "unknown field '" + str(head[3].text) +
                            "' (expected pattern, real, integer, or "
                            "complex)");
  const std::string symmetry = lower(head[4].text);
  if (symmetry != "general" && symmetry != "symmetric" &&
      symmetry != "skew-symmetric" && symmetry != "hermitian")
    r.fail(head[4].col, "unknown symmetry '" + str(head[4].text) +
                            "' (expected general, symmetric, "
                            "skew-symmetric, or hermitian)");

  // Size line after % comments.
  if (!next_data_line(r, out.stats.comment_lines))
    r.fail_eof("file ends before the '<rows> <cols> <entries>' size line");
  const std::vector<Token> size = r.tokens();
  if (size.size() != 3)
    r.fail(size[0].col, "size line must be '<rows> <cols> <entries>', got " +
                            std::to_string(size.size()) + " token(s)");
  const std::int64_t rows = io_detail::parse_vertex_count(r, size[0]);
  const std::int64_t cols = io_detail::parse_count(r, size[1],
                                                   "column count");
  const std::int64_t nnz = io_detail::parse_count(r, size[2], "entry count");
  if (rows != cols)
    r.fail(size[1].col, "adjacency matrix must be square, got " +
                            std::to_string(rows) + "x" +
                            std::to_string(cols));

  EdgeAccumulator acc;
  acc.n = rows;
  std::int64_t entries = 0;
  while (entries < nnz) {
    if (!r.next())
      r.fail_eof("size line declared " + std::to_string(nnz) +
                 " entries but the file ends after " +
                 std::to_string(entries));
    if (!r.line.empty() && r.line[0] == '%') {
      ++out.stats.comment_lines;
      continue;
    }
    const std::vector<Token>& toks = r.tokens();
    if (toks.empty()) continue;
    if (toks.size() != 2 + value_tokens)
      r.fail(toks[0].col, "entry must be '<row> <col>" +
                              std::string(value_tokens > 0 ? " <value>" : "") +
                              "' for field '" + field + "', got " +
                              std::to_string(toks.size()) + " token(s)");
    // Matrix Market is firmly 1-based; 0 is out of range, not a hint.
    acc.add(r, toks[0], toks[1], 1);
    ++entries;
  }
  while (r.next()) {
    if (!r.line.empty() && r.line[0] == '%') {
      ++out.stats.comment_lines;
      continue;
    }
    if (!r.tokens().empty())
      r.fail(1, "size line declared " + std::to_string(nnz) +
                    " entries but the file contains more");
  }
  out.stats.declared_n = rows;
  out.stats.declared_m = nnz;
  out.stats.edge_records = entries;
  release(text);
  out.graph = acc.finish(name, out.stats);
  return out;
}

// --- Whitespace edge list -------------------------------------------------

struct EdgeListChunk {
  std::vector<std::pair<std::int64_t, std::int64_t>> raw;
  std::int64_t records = 0;
  std::int64_t comments = 0;
  std::int64_t self_loops = 0;
};

ReadResult read_edge_list(std::string& text, const std::string& name,
                          int threads) {
  ReadResult out;
  out.stats.format = GraphFormat::kEdgeList;
  // Arbitrary non-negative 64-bit ids (SNAP-style dumps routinely use
  // hashes); vertices are the distinct ids, remapped to 0..n-1 in sorted
  // order. Isolated vertices are unrepresentable -- documented in
  // docs/FORMATS.md.
  BodyPos end;
  std::vector<EdgeListChunk> parts = parse_chunks<EdgeListChunk>(
      text, name, 1, threads, end,
      [&](LineCursor& r, EdgeListChunk& part, BodyPos) {
        while (r.next()) {
          if (r.line.empty()) continue;
          const char c0 = r.line[0];
          if (c0 == '#' || c0 == '%') {
            ++part.comments;
            continue;
          }
          const std::vector<Token>& toks = r.tokens();
          if (toks.empty()) continue;
          io_detail::parse_edge_list_line(r, toks, part.raw, part.records,
                                          part.self_loops);
        }
      });

  std::size_t total_raw = 0;
  std::int64_t self_loops = 0;
  for (const EdgeListChunk& p : parts) {
    total_raw += p.raw.size();
    out.stats.edge_records += p.records;
    out.stats.comment_lines += p.comments;
    self_loops += p.self_loops;
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> raw =
      std::move(parts[0].raw);
  raw.reserve(total_raw);
  for (std::size_t i = 1; i < parts.size(); ++i) {
    raw.insert(raw.end(), parts[i].raw.begin(), parts[i].raw.end());
    std::vector<std::pair<std::int64_t, std::int64_t>>().swap(parts[i].raw);
  }
  release(text);
  out.graph =
      io_detail::finish_edge_list(name, end.line, raw, self_loops, out.stats);
  return out;
}

// Parses the whole input buffer in an explicit format; `threads` is the
// METIS / edge-list chunk count (DIMACS and Matrix Market are one chunk).
ReadResult parse_buffer(std::string& text, GraphFormat format,
                        const std::string& name, int threads) {
  switch (format) {
    case GraphFormat::kDimacs: return read_dimacs(text, name);
    case GraphFormat::kMetis: return read_metis(text, name, threads);
    case GraphFormat::kMatrixMarket: return read_matrix_market(text, name);
    case GraphFormat::kEdgeList: return read_edge_list(text, name, threads);
    case GraphFormat::kAuto: break;
  }
  throw InternalError("unreachable GraphFormat");
}

// --- Writers --------------------------------------------------------------

void write_dimacs(std::ostream& out, const Graph& g) {
  out << "p edge " << g.num_vertices() << " " << g.num_edges() << "\n";
  for (const auto& [u, v] : g.edges())
    out << "e " << (u + 1) << " " << (v + 1) << "\n";
}

void write_metis(std::ostream& out, const Graph& g) {
  out << g.num_vertices() << " " << g.num_edges() << "\n";
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    bool first = true;
    for (const Vertex w : g.neighbors(v)) {
      if (!first) out << " ";
      out << (w + 1);
      first = false;
    }
    out << "\n";
  }
}

void write_matrix_market(std::ostream& out, const Graph& g) {
  out << "%%MatrixMarket matrix coordinate pattern symmetric\n";
  out << g.num_vertices() << " " << g.num_vertices() << " " << g.num_edges()
      << "\n";
  // Symmetric storage keeps entries on or below the diagonal: row >= col.
  for (const auto& [u, v] : g.edges())
    out << (v + 1) << " " << (u + 1) << "\n";
}

// Throws PreconditionError when `format` cannot represent `g`: an edge
// list has no way to name an isolated vertex.
void require_representable(const Graph& g, GraphFormat format) {
  if (format != GraphFormat::kEdgeList) return;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    SCOL_REQUIRE(g.degree(v) > 0,
                 + ("edge-list format cannot represent isolated vertex " +
                    std::to_string(v)));
}

void write_edge_list(std::ostream& out, const Graph& g) {
  for (const auto& [u, v] : g.edges()) out << u << " " << v << "\n";
}

std::string extension_of(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return "";
  std::string ext = path.substr(dot + 1);
  for (char& c : ext)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return ext;
}

GraphFormat format_from_extension(const std::string& ext) {
  if (ext == "col") return GraphFormat::kDimacs;
  if (ext == "graph" || ext == "metis") return GraphFormat::kMetis;
  if (ext == "mtx" || ext == "mm") return GraphFormat::kMatrixMarket;
  if (ext == "edges" || ext == "el" || ext == "edgelist" || ext == "txt")
    return GraphFormat::kEdgeList;
  return GraphFormat::kAuto;  // unknown
}

}  // namespace

GraphFormat parse_format(const std::string& name) {
  if (name == "auto") return GraphFormat::kAuto;
  if (name == "dimacs" || name == "col") return GraphFormat::kDimacs;
  if (name == "metis" || name == "graph") return GraphFormat::kMetis;
  if (name == "mtx" || name == "mm" || name == "matrixmarket")
    return GraphFormat::kMatrixMarket;
  if (name == "edges" || name == "edgelist" || name == "el")
    return GraphFormat::kEdgeList;
  throw PreconditionError(
      "unknown graph format '" + name +
      "'; known: auto, dimacs (col), metis (graph), mtx (mm), edges "
      "(edgelist, el)");
}

std::string format_name(GraphFormat format) {
  switch (format) {
    case GraphFormat::kAuto: return "auto";
    case GraphFormat::kDimacs: return "dimacs";
    case GraphFormat::kMetis: return "metis";
    case GraphFormat::kMatrixMarket: return "mtx";
    case GraphFormat::kEdgeList: return "edges";
  }
  throw InternalError("unreachable GraphFormat");
}

ReadResult read_graph(std::istream& in, GraphFormat format,
                      const std::string& name) {
  SCOL_REQUIRE(format != GraphFormat::kAuto,
               + "read_graph needs an explicit format (sniffing requires a "
                 "path; use read_graph_file)");
  std::string text = read_all(in, name, 0);
  return parse_buffer(text, format, name, 1);
}

GraphFormat sniff_format(const std::string& path, const std::string& head) {
  const GraphFormat by_ext = format_from_extension(extension_of(path));
  if (by_ext != GraphFormat::kAuto) return by_ext;
  if (head.rfind("%%MatrixMarket", 0) == 0) return GraphFormat::kMatrixMarket;
  // A DIMACS file opens with comment lines and then the problem line.
  std::istringstream in(head);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'p' &&
        (line.size() == 1 || line[1] == ' ' || line[1] == '\t'))
      return GraphFormat::kDimacs;
    break;
  }
  throw PreconditionError(
      path + ": cannot sniff the graph format (unknown extension and the "
      "content is not Matrix Market or DIMACS; METIS and edge lists are "
      "content-ambiguous -- pass format= explicitly)");
}

ReadResult read_graph_file(const std::string& path, GraphFormat format) {
  return read_graph_file(path, format, ReadOptions{});
}

ReadResult read_graph_file(const std::string& path, GraphFormat format,
                           const ReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw PreconditionError(path + ": cannot open file for reading");
  // The size presizes the buffer; pipes and other special files have
  // none and are read to their end all the same.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::is_regular_file(path, ec)
                                  ? std::filesystem::file_size(path, ec)
                                  : 0;
  std::string text = read_all(in, path, ec ? 0 : size);
  if (format == GraphFormat::kAuto)
    format = sniff_format(path, text.substr(0, 256));
  return parse_buffer(text, format, path, options.threads);
}

void write_graph(std::ostream& out, const Graph& g, GraphFormat format) {
  require_representable(g, format);
  switch (format) {
    case GraphFormat::kDimacs: write_dimacs(out, g); return;
    case GraphFormat::kMetis: write_metis(out, g); return;
    case GraphFormat::kMatrixMarket: write_matrix_market(out, g); return;
    case GraphFormat::kEdgeList: write_edge_list(out, g); return;
    case GraphFormat::kAuto: break;
  }
  throw PreconditionError("write_graph needs an explicit format");
}

void write_graph_file(const std::string& path, const Graph& g,
                      GraphFormat format) {
  if (format == GraphFormat::kAuto) {
    format = format_from_extension(extension_of(path));
    SCOL_REQUIRE(format != GraphFormat::kAuto,
                 + (path + ": cannot infer a write format from the "
                    "extension; pass one explicitly"));
  }
  // Refuse before any file exists; the write itself never leaves a
  // partial file at `path`.
  require_representable(g, format);
  write_file_atomically(
      path, [&](std::ostream& out) { write_graph(out, g, format); });
}

}  // namespace scol
