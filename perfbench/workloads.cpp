#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "algorithms/platform_suite.h"
#include "algorithms/reference.h"
#include "campaign/journal.h"
#include "campaign/runner.h"
#include "core/graph_stats.h"
#include "datasets/catalog.h"
#include "datasets/dataset_cache.h"
#include "harness/experiment.h"
#include "partition/partition.h"
#include "serve/serving.h"
#include "serve/trace.h"

namespace perfbench {

namespace fs = std::filesystem;
using gb::Graph;
using gb::datasets::Dataset;
using gb::datasets::DatasetId;
using gb::platforms::Algorithm;

Profile profile_by_name(const std::string& name) {
  Profile p;
  if (name == "full") {
    p.scale = 0.02;
    p.cold_friendster_scale = 0.002;
    p.friendster_scale = 0.01;
    p.grid_scale = 0.01;
    p.serve_jobs = 200;
    p.setup_reps = 5;
    p.min_iterations = 3;
  } else if (name == "tiny") {
    p.scale = 0.002;
    p.cold_friendster_scale = 0.0005;
    p.friendster_scale = 0.0005;
    p.grid_scale = 0.002;
    p.serve_jobs = 40;
    p.setup_reps = 2;
    p.min_iterations = 2;
  } else {
    throw std::runtime_error("unknown profile '" + name + "'");
  }
  return p;
}

void Checker::record(const std::string& name, const std::string& value) {
  ++attempted_;
  observed_.emplace(name, value);
  const Records& expected = golden_.empty() ? observed_ : golden_;
  const auto it = expected.find(name);
  if (it != expected.end() && it->second == value) return;
  ++failed_;
  if (errors_.size() < 20) {
    errors_.push_back(name + ": got " + value + ", expected " +
                      (it == expected.end() ? "<no record>" : it->second));
  }
}

void Checker::fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  if (errors_.size() < 20) errors_.push_back(what);
}

namespace {

using Layers = Workload::Layers;

const std::vector<Algorithm>& grid_algorithms() {
  static const std::vector<Algorithm> algos = {
      Algorithm::kStats, Algorithm::kBfs,      Algorithm::kConn,
      Algorithm::kCd,    Algorithm::kPageRank, Algorithm::kSssp,
      Algorithm::kLcc};
  return algos;
}

const std::vector<std::string>& grid_platforms() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& p : gb::algorithms::make_all_platforms()) {
      v.push_back(p->name());
    }
    return v;
  }();
  return names;
}

std::string dataset_name(DatasetId id) { return gb::datasets::info(id).name; }

template <typename F>
double timed(F&& f, double& wall, double& cpu) {
  const double c0 = cpu_now();
  const double t = time_call(std::forward<F>(f));
  wall += t;
  cpu += cpu_now() - c0;
  return t;
}

template <typename T>
std::uint64_t hash_vector(const std::vector<T>& v, std::uint64_t h) {
  return fnv1a(v.data(), v.size() * sizeof(T), h);
}

/// Content hash of a CSR graph: shape, flags and every out-list (with
/// weights when stored). In-lists are derived from out-lists.
std::string graph_hash(const Graph& g) {
  const std::uint64_t header[4] = {g.num_vertices(), g.num_edges(),
                                   g.directed() ? 1u : 0u,
                                   g.weighted() ? 1u : 0u};
  std::uint64_t h = fnv1a(header, sizeof(header));
  if (g.num_vertices() > 0) {
    const auto all = g.num_adjacency_entries();
    const auto first = g.out_neighbors(0);
    h = fnv1a(first.data(), all * sizeof(gb::VertexId), h);
    for (gb::VertexId v = 0; v <= g.num_vertices(); ++v) {
      const std::uint64_t off = v == g.num_vertices() ? all : g.out_offset(v);
      h = fnv1a(&off, sizeof(off), h);
    }
    if (g.weighted()) {
      h = fnv1a(g.out_weights(0).data(), all * sizeof(gb::EdgeWeight), h);
    }
  }
  return hex64(h);
}

std::string cell_record(const gb::harness::CellResult& cell) {
  return cell.outcome + "|" + hex64(cell.output_hash) + "|" +
         std::to_string(cell.iterations);
}

/// A cell's simulated record; a library-reported error is never ok.
void check_cell(Checker& check, const std::string& name,
                const gb::harness::CellResult& cell) {
  const std::string cls = gb::harness::outcome_class(cell.outcome);
  if (cls != "ok" && cls != "crash" && cls != "timeout") {
    check.fail(name + ": " + cell.outcome + " " + cell.message);
    return;
  }
  check.record(name, cell_record(cell));
}

double file_bytes(const std::string& path) {
  return static_cast<double>(fs::file_size(path));
}

std::vector<std::string> gbin_files(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".gbin") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Loads every cache file in `dir` with Graph::load_binary.
void probe_load_binary(const std::string& dir, Layers& layers) {
  double seconds = 0.0;
  double bytes = 0.0;
  for (const auto& path : gbin_files(dir)) {
    Graph g;
    seconds += time_call([&] { g = Graph::load_binary(path); });
    bytes += file_bytes(path);
  }
  layers["core.load_binary_s"] += seconds;
  if (seconds > 0.0) layers["core.load_mb_per_s"] = bytes / 1e6 / seconds;
}

struct Input {
  DatasetId id;
  double scale;
};

// ---------------------------------------------------------------------------
// cold_build: a fresh checkout builds the catalog, then verifies it.

class ColdBuild : public Workload {
 public:
  explicit ColdBuild(Env env) : Workload(std::move(env)) {
    for (const DatasetId id : gb::datasets::all_datasets()) {
      inputs_.push_back({id, id == DatasetId::kFriendster
                                 ? env_.profile.cold_friendster_scale
                                 : env_.profile.scale});
    }
  }

  double setup(Checker& check, Layers* layers) override {
    std::error_code ec;
    fs::remove_all(cache_dir(), ec);
    double wall = 0.0;
    double cpu = 0.0;
    edges_ = 0.0;
    for (const auto& in : inputs_) {
      Dataset ds;
      const double t = timed(
          [&] {
            ds = gb::datasets::load_or_generate(in.id, in.scale, env_.seed,
                                                cache_dir());
          },
          wall, cpu);
      check.record("graph/" + ds.name, graph_hash(ds.graph));
      edges_ += static_cast<double>(ds.graph.num_edges());
      if (layers != nullptr) {
        (*layers)["datasets.generate_s"] += t;
        (*layers)["datasets.generate_s." + ds.name] += t;
      }
    }
    return wall;
  }

  double setup_edges() const override { return edges_; }

  IterationWork iterate(Checker& check, double& wall, double& cpu,
                        Layers* layers) override {
    namespace alg = gb::algorithms;
    struct Verified {
      std::shared_ptr<const Dataset> ds;
      alg::BfsResult bfs;
      alg::ConnResult conn;
      alg::PageRankResult pr;
      double bfs_s = 0.0, conn_s = 0.0, pr_s = 0.0;
    };
    // The datasets are shared out over the pool's threads, largest first
    // (the catalog lists them smallest first), and each kernel runs
    // serially on its thread. Kernels split across both threads spent
    // 20-50% of this run waiting for thread wake-ups on a 4-vCPU VM, which
    // made run_s spread 22% between runs.
    gb::datasets::DatasetCache cache(cache_dir());
    std::vector<Verified> out(inputs_.size());
    std::atomic<std::size_t> next{0};
    const auto verify = [&](std::size_t, std::size_t) {
      for (std::size_t k; (k = next.fetch_add(1)) < inputs_.size();) {
        const std::size_t i = inputs_.size() - 1 - k;
        Verified& v = out[i];
        v.ds = cache.get(inputs_[i].id, inputs_[i].scale, env_.seed);
        const Graph& g = v.ds->graph;
        const gb::VertexId source =
            gb::harness::default_params(*v.ds).bfs_source;
        v.bfs_s = time_call([&] { v.bfs = alg::reference_bfs(g, source); });
        v.conn_s = time_call([&] { v.conn = alg::reference_conn(g); });
        v.pr_s = time_call([&] { v.pr = alg::reference_pagerank(g, {}); });
      }
    };
    const double cpu0 = cpu_now();
    wall += time_call([&] { pool_.parallel_for(env_.threads, verify); });
    cpu += cpu_now() - cpu0;

    IterationWork work;
    for (const Verified& v : out) {
      const Graph& g = v.ds->graph;
      const std::string& name = v.ds->name;
      check.record("graph/" + name, graph_hash(g));
      check.record("ref/" + name + "/BFS",
                   hex64(hash_vector(v.bfs.levels, v.bfs.iterations)));
      check.record("ref/" + name + "/CONN",
                   hex64(hash_vector(v.conn.labels, v.conn.components)));
      check.record("ref/" + name + "/PAGERANK",
                   hex64(hash_vector(v.pr.ranks, v.pr.iterations)));
      work.edges += 3.0 * static_cast<double>(g.num_edges());
      work.cells += 3.0;
      work.jobs += 1.0;
      if (layers == nullptr) continue;
      Layers& l = *layers;
      l["algorithms.ref_bfs_s"] += v.bfs_s;
      l["algorithms.ref_conn_s"] += v.conn_s;
      l["algorithms.ref_pagerank_s"] += v.pr_s;
      for (gb::VertexId u = 0; u < g.num_vertices(); ++u) {
        if (v.bfs.levels[u] != alg::kUnreached) {
          l["algorithms.ref_bfs_edges"] += static_cast<double>(g.out_degree(u));
        }
      }
    }
    return work;
  }

  void probe(Checker& check, double /*traced_run_s*/,
             Layers& layers) override {
    const std::string out_dir = env_.dir + "/replay";
    fs::create_directories(out_dir);
    for (const auto& in : inputs_) {
      const Dataset ds = gb::datasets::load_or_generate(in.id, in.scale,
                                                        env_.seed, cache_dir());
      const std::string path = out_dir + "/" + ds.name + ".gbin";
      layers["core.save_binary_s"] +=
          time_call([&] { ds.graph.save_binary(path); });
      layers["core.bytes_written"] += file_bytes(path);
      fs::remove(path);
      if (in.id != DatasetId::kSynth && in.id != DatasetId::kFriendster) {
        continue;
      }
      // Replay CSR construction and component extraction on the
      // generated edge list. The graph is already canonical, so both must
      // reproduce it exactly.
      const Graph& g = ds.graph;
      gb::GraphBuilder builder(g.num_vertices(), g.directed());
      for (gb::VertexId v = 0; v < g.num_vertices(); ++v) {
        const auto nbrs = g.out_neighbors(v);
        const auto weights = g.out_weights(v);
        for (std::size_t k = 0; k < nbrs.size(); ++k) {
          if (!g.directed() && nbrs[k] < v) continue;
          if (g.weighted()) {
            builder.add_edge(v, nbrs[k], weights[k]);
          } else {
            builder.add_edge(v, nbrs[k]);
          }
        }
      }
      Graph built;
      layers["core.build_s." + ds.name] +=
          time_call([&] { built = builder.build(); });
      check.record("graph/" + ds.name, graph_hash(built));
      Graph largest;
      layers["core.largest_component_s." + ds.name] +=
          time_call([&] { largest = gb::largest_component(built); });
      check.record("graph/" + ds.name, graph_hash(largest));
    }
    probe_load_binary(cache_dir(), layers);
    const double bfs_s = layers["algorithms.ref_bfs_s"];
    if (bfs_s > 0.0) {
      layers["algorithms.ref_bfs_teps"] =
          layers["algorithms.ref_bfs_edges"] / bfs_s;
    }
  }

 private:
  std::string cache_dir() const { return env_.dir + "/catalog"; }

  std::vector<Input> inputs_;
  double edges_ = 0.0;
};

// ---------------------------------------------------------------------------
// Warm workloads: graphs are generated untimed into a private cache, and
// set-up loads them into a fresh shared DatasetCache.

class WarmWorkload : public Workload {
 public:
  using Workload::Workload;

  void prepare() override {
    for (const auto& in : inputs_) {
      gb::datasets::load_or_generate(in.id, in.scale, env_.seed, warm_dir());
    }
  }

  double setup(Checker& check, Layers* layers) override {
    double wall = 0.0;
    double cpu = 0.0;
    const std::size_t files = gbin_files(warm_dir()).size();
    cache_ = std::make_unique<gb::datasets::DatasetCache>(warm_dir());
    for (const auto& in : inputs_) {
      std::shared_ptr<const Dataset> ds;
      const double t = timed(
          [&] { ds = cache_->get(in.id, in.scale, env_.seed); }, wall, cpu);
      if (layers != nullptr) (*layers)["datasets.cache_get_s"] += t;
      // Set-up only reads; cache files are checked once per process.
      if (edges_.emplace(ds->name, static_cast<double>(ds->graph.num_edges()))
              .second) {
        check.record("graph/" + ds->name, graph_hash(ds->graph));
      }
    }
    if (gbin_files(warm_dir()).size() != files) {
      check.fail("set-up generated a graph instead of loading it");
    }
    return wall;
  }

 protected:
  std::string warm_dir() const { return env_.dir + "/warm"; }
  double edges_of(const std::string& dataset) const {
    return edges_.at(dataset);
  }

  std::vector<Input> inputs_;
  std::unique_ptr<gb::datasets::DatasetCache> cache_;

 private:
  std::map<std::string, double> edges_;
};

// ---------------------------------------------------------------------------
// figure_grid: regenerate paper figures on a warm cache.

class FigureGrid : public WarmWorkload {
 public:
  explicit FigureGrid(Env env) : WarmWorkload(std::move(env)) {
    const Profile& p = env_.profile;
    inputs_ = {{DatasetId::kFriendster, p.friendster_scale},
               {DatasetId::kKGS, p.grid_scale},
               {DatasetId::kWikiTalk, p.grid_scale}};
    gb::campaign::GridSpec fig1;
    fig1.platforms = grid_platforms();
    fig1.datasets = {DatasetId::kFriendster};
    fig1.algorithms = {Algorithm::kBfs};
    fig1.scale = p.friendster_scale;
    fig1.seed = env_.seed;
    gb::campaign::GridSpec all;
    all.platforms = grid_platforms();
    all.datasets = {DatasetId::kKGS, DatasetId::kWikiTalk};
    all.algorithms = grid_algorithms();
    all.scale = p.grid_scale;
    all.seed = env_.seed;
    grids_ = {{"fig1_bfs", fig1}, {"all_algorithms", all}};
  }

  IterationWork iterate(Checker& check, double& wall, double& cpu,
                        Layers* layers) override {
    gb::campaign::RunnerOptions options;
    options.parallelism = env_.threads;
    options.cell_parallelism = 1;
    IterationWork work;
    for (const auto& [name, grid] : grids_) {
      gb::campaign::CampaignResult result;
      timed([&] { result = gb::campaign::run_campaign(grid, options, *cache_); },
            wall, cpu);
      std::string json;
      const double t_report = timed(
          [&] { json = gb::campaign::campaign_report_json(result); }, wall,
          cpu);
      check.record("report/" + name, hex64(fnv1a(json)));
      for (const auto& cell : result.cells) {
        check_cell(check, "cell/" + cell.key, cell);
        work.edges += edges_of(cell.dataset);
        work.cells += 1.0;
        if (layers != nullptr) {
          (*layers)["campaign.outcomes." +
                    gb::harness::outcome_class(cell.outcome)] += 1.0;
        }
      }
      work.jobs += 1.0;
      if (layers != nullptr) {
        (*layers)["harness.campaign_report_s"] += t_report;
        (*layers)["harness.report_bytes"] += static_cast<double>(json.size());
      }
    }
    return work;
  }

  void probe(Checker& check, double traced_run_s, Layers& layers) override {
    // Each cell alone, through the same public entry the campaign uses.
    std::vector<double> cell_times;
    double busy = 0.0;
    for (const auto& [name, grid] : grids_) {
      for (const auto& spec : grid.expand()) {
        gb::harness::CellResult cell;
        const double t = time_call(
            [&] { cell = gb::campaign::run_cell_spec(spec, *cache_); });
        check_cell(check, "cell/" + cell.key, cell);
        cell_times.push_back(t);
        busy += t;
        layers["platforms." + spec.platform + ".busy_s"] += t;
        layers[std::string("algorithms.") + spec.algorithm_name() +
               ".busy_s"] += t;
      }
    }
    layers["campaign.cell_s.p50"] = quantile(cell_times, 0.5);
    layers["campaign.cell_s.p90"] = quantile(cell_times, 0.9);
    layers["campaign.thread_util"] =
        busy / (env_.threads * std::max(traced_run_s, 1e-9));

    namespace part = gb::partition;
    for (const DatasetId id : {DatasetId::kKGS, DatasetId::kWikiTalk}) {
      const Graph& g = cache_->get(id, env_.profile.grid_scale, env_.seed)->graph;
      for (const auto strategy :
           {part::Strategy::kHash, part::Strategy::kRange,
            part::Strategy::kDegreeBalanced, part::Strategy::kVertexCut}) {
        layers[std::string("partition.compute_s.") +
               part::strategy_name(strategy)] += time_call([&] {
          (void)part::compute_partition(g, strategy, 20, &pool_);
        });
      }
    }

    const auto kgs = cache_->get(DatasetId::kKGS, env_.profile.grid_scale,
                                 env_.seed);
    gb::algorithms::LccResult lcc;
    layers["algorithms.ref_lcc_s"] += time_call(
        [&] { lcc = gb::algorithms::reference_lcc(kgs->graph, &pool_); });
    check.record("ref/KGS/LCC", hex64(hash_vector(lcc.values, 0)));
    gb::algorithms::StatsResult stats;
    layers["algorithms.ref_stats_s"] += time_call(
        [&] { stats = gb::algorithms::reference_stats(kgs->graph, &pool_); });
    check.record("ref/KGS/STATS",
                 std::to_string(stats.vertices) + "|" +
                     std::to_string(stats.edges) + "|" +
                     hex64(fnv1a(&stats.average_lcc, sizeof(double))));

    probe_load_binary(warm_dir(), layers);
  }

 private:
  std::vector<std::pair<std::string, gb::campaign::GridSpec>> grids_;
};

// ---------------------------------------------------------------------------
// serve_mixed: a multi-tenant replay under the fair scheduler.

class ServeMixed : public WarmWorkload {
  struct EntryShare {
    double busy_s = 0.0;
    int jobs = 0;
    std::uint64_t granted = 0;
    std::map<std::string, int> outcomes;
  };

  static std::string entry_label(const gb::campaign::CellSpec& cell) {
    std::string label = cell.platform + "/" + dataset_name(cell.dataset) +
                        "/" + cell.algorithm_name() + "/w" +
                        std::to_string(cell.workers);
    if (cell.mem_budget_gb > 0.0) label += "/paged";
    return label;
  }

 public:
  explicit ServeMixed(Env env) : WarmWorkload(std::move(env)) {
    const Profile& p = env_.profile;
    gb::serve::TraceSpec spec;
    // The mix and arrival process are fixed; --seed picks the graphs.
    spec.seed = 42;
    // At this rate fair-share grants still shrink the wide batch jobs, but
    // never below the 4 slots GraphLab needs to hold Friendster 0.01
    // without a simulated OOM; every job of the trace completes.
    spec.rate = 0.03;
    spec.jobs = p.serve_jobs;
    const auto entry = [&](const char* platform, DatasetId dataset,
                           Algorithm algorithm, std::uint32_t workers,
                           double weight, double mem_gb = 0.0) {
      gb::serve::MixEntry e;
      e.cell.platform = platform;
      e.cell.dataset = dataset;
      e.cell.algorithm = algorithm;
      e.cell.workers = workers;
      e.cell.scale = dataset == DatasetId::kFriendster ? p.friendster_scale
                                                       : p.scale;
      e.cell.seed = env_.seed;
      e.cell.mem_budget_gb = mem_gb;
      e.weight = weight;
      return e;
    };
    // Relative weights, set from the measured share of each entry in the
    // isolated busy time (a traced run prints them as "serve mix:" lines).
    // With the full profile and seed 110 the largest shares are Hadoop KGS
    // CONN 0.25, GraphLab Friendster BFS 0.22, GraphLab WikiTalk STATS 0.21
    // and Giraph KGS PageRank 0.17.
    spec.mix = {
        entry("Giraph", DatasetId::kAmazon, Algorithm::kBfs, 2, 60.0),
        entry("Hadoop", DatasetId::kAmazon, Algorithm::kStats, 2, 30.0),
        entry("GraphLab", DatasetId::kWikiTalk, Algorithm::kBfs, 2, 40.0),
        entry("GraphLab", DatasetId::kWikiTalk, Algorithm::kStats, 2, 16.0),
        entry("Giraph", DatasetId::kKGS, Algorithm::kPageRank, 16, 3.0),
        entry("Hadoop", DatasetId::kKGS, Algorithm::kConn, 16, 6.0),
        entry("GraphLab", DatasetId::kFriendster, Algorithm::kBfs, 16, 4.0),
        // Paged: a 1 GiB per-node budget forces page-cache misses.
        entry("Giraph", DatasetId::kCitation, Algorithm::kBfs, 2, 20.0, 1.0),
    };
    jobs_ = spec.expand();
    for (const auto& e : spec.mix) {
      bool seen = false;
      for (const auto& in : inputs_) seen |= in.id == e.cell.dataset;
      if (!seen) inputs_.push_back({e.cell.dataset, e.cell.scale});
    }
  }

  IterationWork iterate(Checker& check, double& wall, double& cpu,
                        Layers* layers) override {
    gb::serve::ServeOptions options;
    options.scheduler = gb::sim::SchedulerPolicy::kFair;
    options.total_slots = 20;
    options.parallelism = env_.threads;
    options.journal_path = env_.dir + "/serve_journal.jsonl";
    std::error_code ec;
    fs::remove(options.journal_path, ec);

    timed([&] { report_ = gb::serve::run_serve(jobs_, options, *cache_); },
          wall, cpu);
    std::string json;
    const double t_report =
        timed([&] { json = gb::serve::serve_report_json(report_); }, wall, cpu);
    check.record("report/serve", hex64(fnv1a(json)));
    IterationWork work;
    for (const auto& job : report_.jobs) {
      check_cell(check, "job/" + job.key, job.cell);
      work.edges += edges_of(job.cell.dataset);
    }
    work.cells = static_cast<double>(report_.jobs.size());
    work.jobs = work.cells;
    if (report_.executed != report_.jobs.size()) {
      check.fail("serve: jobs resumed from a stale journal");
    }
    if (layers != nullptr) {
      (*layers)["harness.serve_report_s"] += t_report;
      (*layers)["harness.report_bytes"] += static_cast<double>(json.size());
      (*layers)["serve.grants_shrunk"] = static_cast<double>(
          report_.serve_metrics.counter("serve.grants_shrunk"));
      (*layers)["storage.page_cache.hits"] =
          static_cast<double>(report_.rollup.counter("page_cache.hits"));
      (*layers)["storage.page_cache.misses"] =
          static_cast<double>(report_.rollup.counter("page_cache.misses"));
    }
    return work;
  }

  void probe(Checker& check, double traced_run_s, Layers& layers) override {
    // Every job alone at the width the scheduler granted it; per-job
    // results must equal the shared-cluster run.
    double busy = 0.0;
    std::map<std::string, EntryShare> entries;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const auto& outcome = report_.jobs[i];
      gb::campaign::CellSpec spec = jobs_[i].cell;
      spec.workers = outcome.granted_slots;
      gb::harness::CellResult cell;
      const double t = time_call(
          [&] { cell = gb::campaign::run_cell_spec(spec, *cache_); });
      busy += t;
      EntryShare& e = entries[entry_label(jobs_[i].cell)];
      e.busy_s += t;
      e.jobs += 1;
      e.granted += outcome.granted_slots;
      e.outcomes[gb::harness::outcome_class(outcome.cell.outcome)] += 1;
      layers["platforms." + spec.platform + ".busy_s"] += t;
      layers[std::string("algorithms.") + spec.algorithm_name() +
             ".busy_s"] += t;
      if (spec.mem_budget_gb > 0.0) layers["storage.paged_job_busy_s"] += t;
      if (cell_record(cell) != cell_record(outcome.cell)) {
        check.fail("isolated replay differs: " + outcome.key);
      } else {
        check_cell(check, "job/" + outcome.key, cell);
      }
    }
    layers["serve.isolated_busy_s"] = busy;
    // Each mix entry's measured share of the isolated busy time, so the
    // weights can be checked against the trace that actually ran.
    for (const auto& [label, e] : entries) {
      std::string outcomes;
      for (const auto& [cls, n] : e.outcomes) {
        outcomes += " " + cls + "=" + std::to_string(n);
      }
      std::fprintf(stderr,
                   "serve mix: %-34s jobs=%-3d mean_grant=%4.1f busy_s=%.3f "
                   "share=%.3f%s\n",
                   label.c_str(), e.jobs,
                   static_cast<double>(e.granted) / e.jobs, e.busy_s,
                   e.busy_s / std::max(busy, 1e-9), outcomes.c_str());
    }
    layers["serve.loop_overhead_s"] = traced_run_s - busy / env_.threads;
    layers["serve.cpu_util"] =
        busy / (env_.threads * std::max(traced_run_s, 1e-9));

    const std::string path = env_.dir + "/probe_journal.jsonl";
    {
      gb::campaign::Journal journal(path);
      layers["campaign.journal_append_s"] += time_call([&] {
        for (const auto& job : report_.jobs) journal.append(job.cell);
      });
    }
    layers["campaign.journal_bytes"] = file_bytes(path);
    fs::remove(path);

    probe_load_binary(warm_dir(), layers);
  }

 private:
  std::vector<gb::serve::ServeJob> jobs_;
  gb::serve::ServeReport report_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, Env env) {
  if (name == "cold_build") return std::make_unique<ColdBuild>(std::move(env));
  if (name == "figure_grid") {
    return std::make_unique<FigureGrid>(std::move(env));
  }
  if (name == "serve_mixed") {
    return std::make_unique<ServeMixed>(std::move(env));
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

const std::vector<Metric>& per_layer_catalog() {
  static const std::vector<Metric> catalog = [] {
    std::vector<Metric> m;
    const auto add = [&](std::string name, const char* unit) {
      m.push_back({std::move(name), 0.0, unit});
    };
    add("datasets.generate_s", "s");
    for (const DatasetId id : gb::datasets::all_datasets()) {
      add("datasets.generate_s." + dataset_name(id), "s");
    }
    for (const char* ds : {"Synth", "Friendster"}) {
      add(std::string("core.build_s.") + ds, "s");
    }
    for (const char* ds : {"Synth", "Friendster"}) {
      add(std::string("core.largest_component_s.") + ds, "s");
    }
    add("core.save_binary_s", "s");
    add("core.bytes_written", "B");
    add("core.load_binary_s", "s");
    add("core.load_mb_per_s", "MB/s");
    add("datasets.cache_get_s", "s");
    add("algorithms.ref_bfs_s", "s");
    add("algorithms.ref_conn_s", "s");
    add("algorithms.ref_pagerank_s", "s");
    add("algorithms.ref_bfs_teps", "edges/s");
    add("algorithms.ref_lcc_s", "s");
    add("algorithms.ref_stats_s", "s");
    for (const auto& p : grid_platforms()) {
      add("platforms." + p + ".busy_s", "s");
    }
    for (const Algorithm a : grid_algorithms()) {
      add(std::string("algorithms.") + gb::platforms::algorithm_name(a) +
              ".busy_s",
          "s");
    }
    add("campaign.cell_s.p50", "s");
    add("campaign.cell_s.p90", "s");
    add("campaign.thread_util", "ratio");
    for (const char* o : {"ok", "crash", "timeout"}) {
      add(std::string("campaign.outcomes.") + o, "count");
    }
    for (const char* s : {"hash", "range", "degree", "vertexcut"}) {
      add(std::string("partition.compute_s.") + s, "s");
    }
    add("harness.campaign_report_s", "s");
    add("harness.serve_report_s", "s");
    add("harness.report_bytes", "B");
    add("serve.isolated_busy_s", "s");
    add("serve.loop_overhead_s", "s");
    add("serve.cpu_util", "ratio");
    add("serve.grants_shrunk", "count");
    add("storage.page_cache.hits", "count");
    add("storage.page_cache.misses", "count");
    add("storage.paged_job_busy_s", "s");
    add("campaign.journal_append_s", "s");
    add("campaign.journal_bytes", "B");
    add("obs.trace_overhead_s", "s");
    return m;
  }();
  return catalog;
}

}  // namespace perfbench
