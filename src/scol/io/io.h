// Real-world graph ingestion: file-backed readers and writers for the
// standard benchmark formats, so any DIMACS / SuiteSparse / METIS
// instance flows through scol::solve() and the campaign runner unchanged.
//
// Supported formats (see docs/FORMATS.md for the exact grammars, the
// indexing conventions, and the error-message catalog):
//
//   kDimacs       DIMACS coloring format (.col): "p edge N M" + "e u v"
//   kMetis        METIS / Chaco adjacency format (.graph, .metis)
//   kMatrixMarket Matrix Market coordinate format (.mtx, .mm)
//   kEdgeList     whitespace edge list (.edges, .el, .edgelist, .txt)
//
// Every reader first reads its whole input (file or pipe) into one
// in-memory buffer with plain reads, then parses it through one line
// cursor. The readers are tolerant of real-world files — comments, CRLF
// line endings, 0- vs 1-based vertex ids (auto-detected where the
// format allows both), duplicate edges,
// and self-loops (dropped, counted in ReadStats) — while rejecting
// structural lies (wrong declared edge counts, out-of-range endpoints,
// truncated files) with a PreconditionError whose message carries the
// exact "name:line:column" position of the offense.
#pragma once

#include <iosfwd>
#include <string>

#include "scol/graph/graph.h"

namespace scol {

/// Graph file formats understood by read_graph / write_graph.
enum class GraphFormat {
  kAuto,          ///< resolve from the file extension, then the content
  kDimacs,        ///< DIMACS .col ("p edge N M" header, "e u v" edges)
  kMetis,         ///< METIS adjacency lists ("N M [fmt [ncon]]" header)
  kMatrixMarket,  ///< Matrix Market coordinate ("%%MatrixMarket ...")
  kEdgeList,      ///< one "u v" pair per line, arbitrary integer ids
};

/// Parses a format name as used by the "file" scenario and the CLI:
/// "auto", "dimacs" (alias "col"), "metis" (alias "graph"), "mtx"
/// (aliases "mm", "matrixmarket"), "edges" (aliases "edgelist", "el").
/// Throws PreconditionError on anything else, naming the accepted set.
GraphFormat parse_format(const std::string& name);

/// Canonical name of a format ("auto", "dimacs", "metis", "mtx", "edges").
std::string format_name(GraphFormat format);

/// What the reader saw on the way to the Graph: the resolved format, the
/// header's declared sizes, and every tolerated irregularity. `describe`
/// in the CLI and the tests read these to verify tolerance is explicit,
/// never silent.
struct ReadStats {
  GraphFormat format = GraphFormat::kAuto;  ///< resolved (never kAuto)
  std::int64_t declared_n = -1;  ///< header vertex count (-1: none declared)
  std::int64_t declared_m = -1;  ///< header edge count (-1: none declared)
  std::int64_t edge_records = 0; ///< raw records, incl. duplicates/loops
  std::int64_t duplicate_edges = 0;  ///< dropped (also reversed duplicates)
  std::int64_t self_loops = 0;       ///< dropped
  /// METIS only: edges listed from one endpoint but missing from the
  /// other's adjacency line (the spec requires both); the edge is kept.
  std::int64_t asymmetric_edges = 0;
  std::int64_t comment_lines = 0;
  /// True when the file used 0-based ids (DIMACS/METIS auto-detection,
  /// or an edge list whose smallest id is 0).
  bool zero_indexed = false;
};

/// A parsed graph plus the reader's tolerance/shape report.
struct ReadResult {
  Graph graph;
  ReadStats stats;
};

/// Reads a graph from the rest of a stream, as one chunk, in an explicit
/// format (kAuto is invalid here — a bare stream has no extension to
/// sniff; use read_graph_file or sniff_format first). `name` labels
/// error positions ("<stdin>", a path). Throws PreconditionError with
/// "name:line:column: ..." on any malformed input.
ReadResult read_graph(std::istream& in, GraphFormat format,
                      const std::string& name);

/// Opens and reads `path` (a pipe such as /dev/stdin works too); kAuto
/// resolves via sniff_format (extension first, then a peek at the
/// buffered leading content). Throws PreconditionError when the file
/// cannot be opened or parsed.
ReadResult read_graph_file(const std::string& path,
                           GraphFormat format = GraphFormat::kAuto);

/// How read_graph_file ingests the file.
struct ReadOptions {
  /// Chunk count: the edge-list and METIS readers split the buffered
  /// input into this many newline-aligned chunks and parse them
  /// concurrently; 1 = one chunk on the calling thread (default), 0 =
  /// one chunk per hardware thread. DIMACS and Matrix Market always
  /// parse as one chunk. Every count produces bit-identical graphs,
  /// ReadStats, and error messages (the contract
  /// tests/test_csr_differential.cpp pins), so this knob is purely a
  /// throughput choice.
  int threads = 1;
};

/// Reads `path` with explicit ingestion options (see ReadOptions).
ReadResult read_graph_file(const std::string& path, GraphFormat format,
                           const ReadOptions& options);

/// Resolves kAuto: first by the path's extension (.col / .graph /
/// .metis / .mtx / .mm / .edges / .el / .edgelist / .txt), then by
/// `head` (the file's leading bytes): "%%MatrixMarket" means Matrix
/// Market, a "p" problem line means DIMACS. Throws PreconditionError
/// when neither signal decides (METIS and edge lists are
/// content-ambiguous — pass format= explicitly).
GraphFormat sniff_format(const std::string& path, const std::string& head);

/// Writes `g` in the given format (kAuto is invalid). DIMACS, METIS and
/// Matrix Market are written 1-based; edge lists 0-based. The edge-list
/// format cannot represent isolated vertices and throws
/// PreconditionError when `g` has one. Reading a written file yields a
/// graph with identical vertex ids and edge set (the round-trip
/// contract of tests/test_io.cpp).
void write_graph(std::ostream& out, const Graph& g, GraphFormat format);

/// Writes to `path`; kAuto resolves the format from the extension. A
/// graph the format cannot represent throws before any file is
/// created; otherwise the graph goes to `path + ".tmp"` and is renamed
/// into place, so a failure never leaves a partial file at `path`.
void write_graph_file(const std::string& path, const Graph& g,
                      GraphFormat format = GraphFormat::kAuto);

}  // namespace scol
