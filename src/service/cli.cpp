#include "service/cli.hpp"

#include <stdexcept>

#include "graph/io.hpp"

namespace croute {

GraphFamily parse_family(const std::string& name) {
  if (name == "er") return GraphFamily::kErdosRenyi;
  if (name == "geometric") return GraphFamily::kGeometric;
  if (name == "grid") return GraphFamily::kGrid;
  if (name == "torus") return GraphFamily::kTorus;
  if (name == "ba") return GraphFamily::kBarabasiAlbert;
  if (name == "ws") return GraphFamily::kWattsStrogatz;
  if (name == "ring") return GraphFamily::kRingOfCliques;
  if (name == "tree") return GraphFamily::kRandomTree;
  if (name == "path") return GraphFamily::kPath;
  if (name == "caterpillar") return GraphFamily::kCaterpillar;
  throw std::invalid_argument(
      "unknown family: " + name +
      " (want er|geometric|grid|torus|ba|ws|ring|tree|path|caterpillar)");
}

std::string ServiceSetup::validate() const {
  if (graph_path.empty() && n < 2) {
    return "need --n >= 2 to generate a graph (or pass --graph=FILE)";
  }
  std::string err = service.validate();
  if (!err.empty()) return err;
  err = traffic.validate();
  if (!err.empty()) return err;
  err = driver.validate();
  if (!err.empty()) return err;
  if (queries == 0) return "need --queries >= 1";
  return "";
}

Graph ServiceSetup::build_graph() const {
  if (!graph_path.empty()) return load_graph(graph_path);
  Rng rng(seed);
  return make_workload(family, n, rng, weighted);
}

std::vector<RouteQuery> ServiceSetup::build_traffic(const Graph& g) const {
  Rng rng(seed + 2);
  std::vector<RouteQuery> out = make_traffic(g, workload, queries, rng,
                                             traffic);
  if (exact || workload == WorkloadKind::kFarPairs) {
    attach_exact_distances(g, out);
  }
  return out;
}

ServiceSetup parse_service_setup(const Flags& flags) {
  if (flags.has("warm")) {
    throw std::invalid_argument(
        "--warm was removed: start from disk with --artifact-dir=DIR (the "
        "first run persists the generation, later runs recover it)");
  }
  ServiceSetup setup;
  setup.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  setup.graph_path = flags.get_string("graph", "");
  setup.family = parse_family(flags.get_string("family", "er"));
  setup.n = static_cast<VertexId>(flags.get_int("n", 10000));
  setup.weighted = flags.get_bool("weighted", false);

  RouteServiceOptions& opt = setup.service;
  opt.scheme = parse_scheme(flags.get_string("scheme", "tz"));
  // Benches sweep --threads as a comma list ("1,2,4") and override
  // per run; a list here means "binary handles it", not a parse error.
  if (flags.get_string("threads", "").find(',') == std::string::npos) {
    opt.threads = static_cast<unsigned>(flags.get_int("threads", 0));
  }
  opt.k = static_cast<std::uint32_t>(flags.get_int("k", 3));
  opt.sampling = parse_sampling(flags.get_string("sampling", "centered"));
  opt.seed = setup.seed + 1;
  opt.batch_group = static_cast<std::uint32_t>(
      flags.get_int("batch-group", opt.batch_group));
  opt.persist.dir = flags.get_string("artifact-dir", "");
  opt.persist.retain = static_cast<std::uint32_t>(
      flags.get_int("artifact-retain", static_cast<int>(opt.persist.retain)));
  opt.persist.rebuild_retries = static_cast<std::uint32_t>(flags.get_int(
      "rebuild-retries", static_cast<int>(opt.persist.rebuild_retries)));
  opt.metrics = !flags.get_bool("no-metrics", false);

  setup.workload = parse_workload(flags.get_string("workload", "uniform"));
  setup.queries = static_cast<std::uint32_t>(flags.get_int("queries", 100000));
  setup.exact = flags.get_bool("exact", false);
  setup.traffic.source_pool =
      static_cast<std::uint32_t>(flags.get_int("source-pool", 64));
  setup.driver.batch_size =
      static_cast<std::uint32_t>(flags.get_int("batch", 2048));

  const std::string err = setup.validate();
  if (!err.empty()) throw std::invalid_argument(err);
  return setup;
}

}  // namespace croute
