#include "scol/api/oneshot.h"

#include <memory>
#include <string_view>

#include "scol/api/registry.h"
#include "scol/api/request.h"
#include "scol/api/scenario.h"
#include "scol/api/solve.h"
#include "scol/local/shard.h"
#include "scol/util/check.h"
#include "scol/util/rng.h"

namespace scol {

int one_shot_exit_code(const Json& report) {
  const Json* status = report.get("status");
  return (status != nullptr && status->is_str() &&
          status->as_str() == "failed")
             ? 1
             : 0;
}

bool RunShape::operator==(const RunShape& o) const {
  return k == o.k && std::string_view(lists) == o.lists &&
         palette == o.palette;
}

RunShape run_shape(const AlgorithmInfo& info, Vertex k,
                   const std::string& lists_mode, Color palette,
                   Vertex max_degree, const ParamBag& params) {
  SCOL_REQUIRE(lists_mode == "uniform" || lists_mode == "random",
               + ("lists_mode must be uniform or random, got '" +
                  lists_mode + "'"));
  RunShape shape;
  shape.k = effective_k(info, k, max_degree, params);
  if (!info.caps.needs_lists) return shape;
  if (lists_mode == "uniform") {
    shape.lists = "uniform";
  } else {
    shape.lists = "random";
    shape.palette = palette > 0 ? palette : static_cast<Color>(4 * shape.k);
    SCOL_REQUIRE(shape.palette >= shape.k,
                 + ("palette " + std::to_string(shape.palette) +
                    " is smaller than k " + std::to_string(shape.k)));
  }
  return shape;
}

ListAssignment build_lists(const RunShape& shape, Vertex n,
                           std::uint64_t seed) {
  const std::string_view mode = shape.lists;
  SCOL_REQUIRE(mode != "none", + "build_lists needs a shape with lists");
  if (mode == "uniform") return uniform_lists(n, static_cast<Color>(shape.k));
  // Keyed on (seed, k, palette) alone: not on how the graph was obtained
  // (generated vs cached), nor on which campaign job asked first.
  Rng list_rng =
      Rng::stream(seed, (static_cast<std::uint64_t>(shape.k) << 32) ^
                            static_cast<std::uint64_t>(shape.palette));
  return random_lists(n, static_cast<Color>(shape.k), shape.palette,
                      list_rng);
}

Json scenario_json(const std::string& spec, const Graph& g) {
  Json scenario = Json::object();
  scenario.set("spec", Json::str(spec));
  scenario.set("n", Json::integer(g.num_vertices()));
  scenario.set("m", Json::integer(g.num_edges()));
  scenario.set("max_degree", Json::integer(g.max_degree()));
  return scenario;
}

Json one_shot_report_on(const Graph& g, const OneShotSpec& spec,
                        const Executor* executor,
                        std::shared_ptr<Arena> arena) {
  const AlgorithmInfo& info =
      AlgorithmRegistry::instance().at(spec.algorithm);
  const RunShape shape = run_shape(info, spec.k, spec.lists_mode,
                                   spec.palette, g.max_degree(), spec.params);

  ListAssignment lists;
  ColoringRequest req;
  req.graph = &g;
  req.algorithm = spec.algorithm;
  req.k = shape.k;
  req.params = spec.params;
  if (info.caps.needs_lists) {
    lists = build_lists(shape, g.num_vertices(), spec.seed);
    req.lists = &lists;
  }

  RunContext ctx;
  ctx.seed = spec.seed;
  ctx.round_budget = spec.round_budget;
  ctx.deadline_ms = spec.deadline_ms;
  ctx.validate = spec.validate;
  ctx.executor = executor;
  if (arena) ctx.arena = std::move(arena);

  ColoringReport report = solve(req, ctx);
  // wall_ms is the one nondeterministic report field; callers that need
  // byte-stable output (the server, its caches, the load generator's
  // oracle) zero it and measure latency outside the report.
  if (!spec.include_timing) report.wall_ms = 0.0;

  Json out = to_json(report, spec.with_coloring);
  out.set("scenario", scenario_json(spec.scenario, g));
  out.set("k", Json::integer(shape.k));
  out.set("seed", Json::integer(static_cast<std::int64_t>(spec.seed)));
  out.set("threads", Json::integer(spec.threads));
  return out;
}

Json one_shot_report(const OneShotSpec& spec) {
  Rng scenario_rng(spec.seed);
  const Graph g = build_scenario(spec.scenario, scenario_rng);

  SCOL_REQUIRE(spec.threads <= 0 || spec.shards <= 0,
               + "threads and shards are mutually exclusive executors");
  std::unique_ptr<ThreadPoolExecutor> pool;
  std::unique_ptr<ShardedExecutor> sharded;
  const Executor* executor = nullptr;
  if (spec.threads > 0) {
    pool = std::make_unique<ThreadPoolExecutor>(spec.threads);
    executor = pool.get();
  } else if (spec.shards > 0) {
    ShardOptions options;
    options.shards = spec.shards;
    options.threaded = true;
    options.metrics = spec.exchange_metrics;
    sharded = std::make_unique<ShardedExecutor>(g, options);
    executor = sharded.get();
  }
  return one_shot_report_on(g, spec, executor);
}

}  // namespace scol
