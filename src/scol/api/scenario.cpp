#include "scol/api/scenario.h"

#include <algorithm>

#include "scol/gen/circulant.h"
#include "scol/gen/lattice.h"
#include "scol/gen/planar_random.h"
#include "scol/gen/random.h"
#include "scol/gen/scale.h"
#include "scol/gen/special.h"
#include "scol/io/io.h"

namespace scol {
namespace {

Vertex geti(const ParamBag& p, const char* key, std::int64_t def) {
  return static_cast<Vertex>(p.get_int(key, def));
}

void register_builtin_scenarios(ScenarioRegistry& r) {
  // --- Lattices (planar and surface workloads). ---
  r.add({"grid", "planar grid; rows=20, cols=20", {"rows", "cols"},
         [](const ParamBag& p, Rng&) {
           return grid(geti(p, "rows", 20), geti(p, "cols", 20));
         }});
  r.add({"cylinder", "planar cylinder; rows=16, cols=16", {"rows", "cols"},
         [](const ParamBag& p, Rng&) {
           return cylinder(geti(p, "rows", 16), geti(p, "cols", 16));
         }});
  r.add({"torus", "torus quadrangulation (genus 1); rows=12, cols=12",
         {"rows", "cols"},
         [](const ParamBag& p, Rng&) {
           return torus_grid(geti(p, "rows", 12), geti(p, "cols", 12));
         }});
  r.add({"torus-tri", "triangulated torus grid; rows=8, cols=8",
         {"rows", "cols"},
         [](const ParamBag& p, Rng&) {
           return torus_triangulation(geti(p, "rows", 8), geti(p, "cols", 8));
         }});
  r.add({"klein", "Klein-bottle quadrangulation (Figure 2); k=9, l=9",
         {"k", "l"},
         [](const ParamBag& p, Rng&) {
           return klein_grid(geti(p, "k", 9), geti(p, "l", 9));
         }});
  r.add({"hex", "hexagonal girth-6 patch; rows=16, cols=16",
         {"rows", "cols"},
         [](const ParamBag& p, Rng&) {
           return hex_patch(geti(p, "rows", 16), geti(p, "cols", 16));
         }});

  // --- Random planar families (Corollary 2.3 workloads). ---
  r.add({"planar", "random stacked (Apollonian) triangulation; n=400", {"n"},
         [](const ParamBag& p, Rng& rng) {
           return random_stacked_triangulation(geti(p, "n", 400), rng);
         }});
  r.add({"grid-diag", "grid with random diagonals; rows=16, cols=16",
         {"rows", "cols"},
         [](const ParamBag& p, Rng& rng) {
           return grid_random_diagonals(geti(p, "rows", 16),
                                        geti(p, "cols", 16), rng);
         }});
  r.add({"subhex", "vertex-deleted hex patch (girth >= 6); rows=20, "
                   "cols=20, p=0.1",
         {"rows", "cols", "p"},
         [](const ParamBag& p, Rng& rng) {
           return random_subhex(geti(p, "rows", 20), geti(p, "cols", 20),
                                p.get_real("p", 0.1), rng);
         }});

  // --- Random sparse families (Theorem 1.3 / Corollary 1.4 workloads). ---
  r.add({"gnm", "random simple graph with m edges; n=512, m=717", {"n", "m"},
         [](const ParamBag& p, Rng& rng) {
           const Vertex n = geti(p, "n", 512);
           return gnm(n, p.get_int("m", static_cast<std::int64_t>(1.4 * n)),
                      rng);
         }});
  r.add({"tree", "uniform random labelled tree; n=512", {"n"},
         [](const ParamBag& p, Rng& rng) {
           return random_tree(geti(p, "n", 512), rng);
         }});
  r.add({"forest", "union of a random spanning trees (arboricity <= a); "
                   "n=512, a=2",
         {"n", "a"},
         [](const ParamBag& p, Rng& rng) {
           return random_forest_union(geti(p, "n", 512), geti(p, "a", 2),
                                      rng);
         }});
  r.add({"regular", "random d-regular graph; n=512, d=4", {"n", "d"},
         [](const ParamBag& p, Rng& rng) {
           return random_regular(geti(p, "n", 512), geti(p, "d", 4), rng);
         }});
  r.add({"gallai", "random Gallai tree; blocks=40, max_clique=5",
         {"blocks", "max_clique"},
         [](const ParamBag& p, Rng& rng) {
           return random_gallai_tree(geti(p, "blocks", 40),
                                     geti(p, "max_clique", 5), rng);
         }});
  r.add({"non-gallai", "random connected non-Gallai graph; n=64", {"n"},
         [](const ParamBag& p, Rng& rng) {
           return random_non_gallai(geti(p, "n", 64), rng);
         }});

  // --- Circulants and powers (lower-bound gadgets). ---
  r.add({"cycle-power", "k-th power of the cycle C_n; n=48, k=3",
         {"n", "k"},
         [](const ParamBag& p, Rng&) {
           return cycle_power(geti(p, "n", 48), geti(p, "k", 3));
         }});
  r.add({"path-power", "k-th power of the path P_n; n=48, k=3",
         {"n", "k"},
         [](const ParamBag& p, Rng&) {
           return path_power(geti(p, "n", 48), geti(p, "k", 3));
         }});

  // --- Named classics. ---
  r.add({"complete", "complete graph K_n; n=8", {"n"},
         [](const ParamBag& p, Rng&) { return complete(geti(p, "n", 8)); }});
  r.add({"bipartite", "complete bipartite K_{a,b}; a=4, b=4", {"a", "b"},
         [](const ParamBag& p, Rng&) {
           return complete_bipartite(geti(p, "a", 4), geti(p, "b", 4));
         }});
  r.add({"cycle", "cycle C_n; n=32", {"n"},
         [](const ParamBag& p, Rng&) { return cycle(geti(p, "n", 32)); }});
  r.add({"path", "path P_n; n=32", {"n"},
         [](const ParamBag& p, Rng&) { return path(geti(p, "n", 32)); }});
  r.add({"star", "star with l leaves; leaves=16", {"leaves"},
         [](const ParamBag& p, Rng&) { return star(geti(p, "leaves", 16)); }});
  r.add({"petersen", "Petersen graph ((3,5)-cage)", {},
         [](const ParamBag&, Rng&) { return petersen(); }});
  r.add({"heawood", "Heawood graph ((3,6)-cage)", {},
         [](const ParamBag&, Rng&) { return heawood(); }});
  r.add({"mcgee", "McGee graph ((3,7)-cage)", {},
         [](const ParamBag&, Rng&) { return mcgee(); }});
  r.add({"grotzsch", "Grötzsch graph (triangle-free, chi = 4)", {},
         [](const ParamBag&, Rng&) { return grotzsch(); }});

  // --- Web-scale synthetic families (gen/scale.h). ---
  r.add({"rmat", "Graph500-style RMAT; scale=16 (n = 2^scale), "
                 "edgefactor=16, a=0.57, b=0.19, c=0.19",
         {"scale", "edgefactor", "a", "b", "c"},
         [](const ParamBag& p, Rng& rng) {
           return rmat(geti(p, "scale", 16), p.get_int("edgefactor", 16),
                       p.get_real("a", 0.57), p.get_real("b", 0.19),
                       p.get_real("c", 0.19), rng);
         }});
  r.add({"powerlaw", "power-law (Chung–Lu) graph with exactly m edges; "
                     "n=65536, m=4n, alpha=2.5",
         {"n", "m", "alpha"},
         [](const ParamBag& p, Rng& rng) {
           const Vertex n = geti(p, "n", 65536);
           return powerlaw(n,
                           p.get_int("m", 4 * static_cast<std::int64_t>(n)),
                           p.get_real("alpha", 2.5), rng);
         }});
  r.add({"pref-attach", "preferential attachment (Barabási–Albert); "
                        "n=65536, k=4 edges per new vertex",
         {"n", "k"},
         [](const ParamBag& p, Rng& rng) {
           return pref_attach(geti(p, "n", 65536), geti(p, "k", 4), rng);
         }});

  // --- Real-world files (io/). ---
  r.add({"file", "file-backed graph; path=... (required; /dev/stdin "
                 "reads a pipe), format=auto (auto|dimacs|metis|mtx|edges), "
                 "threads=1 (METIS / edge-list parse chunks; 0 = all "
                 "cores); see docs/FORMATS.md",
         {"path", "format", "threads"},
         [](const ParamBag& p, Rng&) {
           const std::string path = p.get_str("path", "");
           SCOL_REQUIRE(!path.empty(),
                        + "scenario 'file' needs a path=... param");
           ReadOptions options;
           options.threads = p.get_int_as<int>("threads", 1);
           return read_graph_file(path,
                                  parse_format(p.get_str("format", "auto")),
                                  options)
               .graph;
         }});
}

// Levenshtein distance, for did-you-mean hints on unknown names/keys.
// Inputs are short (scenario names and param keys), so the quadratic DP
// is plenty.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

// " (did you mean 'X'?)" when some known name is within edit distance 2
// of `got` (ties broken toward the first candidate in declaration
// order — registry names are sorted, key lists are as declared), else "".
std::string did_you_mean(const std::string& got,
                         const std::vector<std::string>& known) {
  std::string best;
  std::size_t best_distance = 3;  // only suggest within distance 2
  for (const auto& candidate : known) {
    const std::size_t d = edit_distance(got, candidate);
    if (d < best_distance) {
      best = candidate;
      best_distance = d;
    }
  }
  return best.empty() ? "" : " (did you mean '" + best + "'?)";
}

[[noreturn]] void spec_error(const std::string& spec, std::size_t offset,
                             const std::string& what) {
  throw PreconditionError("scenario spec '" + spec + "': " + what +
                          " at offset " + std::to_string(offset));
}

}  // namespace

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    register_builtin_scenarios(*r);
    return r;
  }();
  return *registry;
}

void ScenarioRegistry::add(ScenarioInfo info) {
  SCOL_REQUIRE(!info.name.empty(), + "scenario name must be non-empty");
  SCOL_REQUIRE(static_cast<bool>(info.build),
               + "scenario must have a build function");
  SCOL_REQUIRE(find(info.name) == nullptr,
               + ("duplicate scenario name '" + info.name + "'"));
  scenarios_.push_back(std::move(info));
}

const ScenarioInfo* ScenarioRegistry::find(const std::string& name) const {
  for (const auto& s : scenarios_)
    if (s.name == name) return &s;
  return nullptr;
}

const ScenarioInfo& ScenarioRegistry::at(const std::string& name) const {
  const ScenarioInfo* s = find(name);
  if (s == nullptr) {
    std::string known;
    for (const auto& n : names()) known += (known.empty() ? "" : ", ") + n;
    throw PreconditionError("unknown scenario '" + name + "'" +
                            did_you_mean(name, names()) +
                            "; known: " + known);
  }
  return *s;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& s : scenarios_) out.push_back(s.name);
  std::sort(out.begin(), out.end());
  return out;
}

std::pair<std::string, ParamBag> parse_scenario_spec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  std::pair<std::string, ParamBag> out;
  out.first = spec.substr(0, colon);
  if (out.first.empty()) spec_error(spec, 0, "empty scenario name");
  if (colon == std::string::npos) return out;
  // Each comma-separated segment must be "key=value" or a bare "key"
  // (true flag). Empty segments, keys, and values are malformed — they
  // are always a typo ("rows=,cols=8", "grid:,"), never intent.
  std::size_t pos = colon + 1;
  while (true) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    if (comma == pos) spec_error(spec, pos, "empty key=value segment");
    const std::string segment = spec.substr(pos, comma - pos);
    const std::size_t eq = segment.find('=');
    if (eq == 0) spec_error(spec, pos, "empty key");
    if (eq != std::string::npos && eq + 1 == segment.size())
      spec_error(spec, pos + eq + 1,
                 "empty value for key '" + segment.substr(0, eq) + "'");
    parse_param(out.second, segment);
    if (comma == spec.size()) break;
    pos = comma + 1;
    if (pos == spec.size()) spec_error(spec, pos, "trailing comma");
  }
  return out;
}

std::pair<std::string, ParamBag> validate_scenario_spec(
    const std::string& spec) {
  auto parsed = parse_scenario_spec(spec);
  const ScenarioInfo& info = ScenarioRegistry::instance().at(parsed.first);
  for (const auto& [key, value] : parsed.second.items()) {
    if (std::find(info.keys.begin(), info.keys.end(), key) !=
        info.keys.end())
      continue;
    std::string known;
    for (const auto& k : info.keys) known += (known.empty() ? "" : ", ") + k;
    const std::size_t offset = spec.find(key + "=", parsed.first.size());
    throw PreconditionError(
        "scenario spec '" + spec + "': unknown key '" + key + "' for '" +
        parsed.first + "' at offset " +
        std::to_string(offset == std::string::npos ? spec.find(key)
                                                   : offset) +
        did_you_mean(key, info.keys) +
        (info.keys.empty() ? " (takes no params)" : "; known keys: " + known));
  }
  return parsed;
}

bool is_file_spec(const std::string& spec) {
  return spec.compare(0, spec.find(':'), "file") == 0;
}

Graph build_scenario(const std::string& spec, Rng& rng) {
  const auto [name, params] = validate_scenario_spec(spec);
  return ScenarioRegistry::instance().at(name).build(params, rng);
}

}  // namespace scol
