// gb_perfbench: measures one workload of the host benchmark and prints
// its metrics as one JSON line. run.py builds and drives it; see README.md.
//
//   gb_perfbench --workload figure_grid --seed 110 --seconds 10 --trace 0
//                --dir .bench_build/work/figure_grid
//   gb_perfbench --workload figure_grid --seed 110 --dir ... --prepare
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "measure.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// Host threads of every workload. Never 0 ("hardware"): on a 4-core host a
// grid spread 10% run to run at 4 threads and 2% at 2.
constexpr std::uint32_t kHostThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 110;
  double seconds = 10.0;
  bool trace = false;
  bool prepare = false;
  std::string dir;
  std::string profile = "full";
  std::string golden;        // golden table to check against, if present
  std::string write_golden;  // write the observed records here
};

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "gb_perfbench: " << msg
            << "\nusage: gb_perfbench --workload NAME --dir DIR [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                    [--profile full|tiny] [--golden FILE]\n"
               "                    [--write-golden FILE] [--prepare]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (arg == "--dir") {
        o.dir = value();
      } else if (arg == "--profile") {
        o.profile = value();
      } else if (arg == "--golden") {
        o.golden = value();
      } else if (arg == "--write-golden") {
        o.write_golden = value();
      } else if (arg == "--prepare") {
        o.prepare = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload.empty() || o.dir.empty()) {
    usage("--workload and --dir are required");
  }
  return o;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + number(values[i]);
  }
  return out + "]";
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

const std::vector<Metric>& end_to_end_catalog() {
  static const std::vector<Metric> catalog = {
      {"setup_s", 0.0, "s"},          {"run_s", 0.0, "s"},
      {"run_cpu_s", 0.0, "s"},        {"peak_rss_mb", 0.0, "MB"},
      {"ok_frac", 0.0, "ratio"},      {"edges_per_s", 0.0, "1/s"},
      {"cells_per_s", 0.0, "1/s"},    {"jobs_per_s", 0.0, "1/s"},
  };
  return catalog;
}

int run(const Options& o) {
  Env env;
  env.seed = o.seed;
  env.threads = kHostThreads;
  env.dir = o.dir;
  env.profile = profile_by_name(o.profile);
  std::filesystem::create_directories(env.dir);
  auto workload = make_workload(o.workload, env);
  if (o.prepare) {
    workload->prepare();
    return 0;
  }

  Records golden;
  if (!o.golden.empty() && std::filesystem::exists(o.golden)) {
    golden = read_records(o.golden);
  }
  Checker check(golden);

  std::vector<double> setups;
  for (int r = 0; r < env.profile.setup_reps; ++r) {
    setups.push_back(workload->setup(check, nullptr));
  }

  std::vector<double> walls;
  std::vector<double> cpus;
  IterationWork work;
  const double start = wall_now();
  while (static_cast<int>(walls.size()) < env.profile.min_iterations ||
         wall_now() - start < o.seconds) {
    double wall = 0.0;
    double cpu = 0.0;
    work = workload->iterate(check, wall, cpu, nullptr);
    walls.push_back(wall);
    cpus.push_back(cpu);
  }
  const double setup_s = median(setups);
  const double run_s = median(walls);

  std::vector<Metric> metrics;
  if (!o.trace) {
    const double edges_per_s = workload->setup_edges() > 0.0
                                   ? workload->setup_edges() / setup_s
                                   : work.edges / run_s;
    const double ok_frac =
        static_cast<double>(check.attempted() - check.failed()) /
        static_cast<double>(std::max<std::uint64_t>(check.attempted(), 1));
    const double values[] = {setup_s,     run_s,       median(cpus),
                             peak_rss_mb(), ok_frac,    edges_per_s,
                             work.cells / run_s, work.jobs / run_s};
    metrics = end_to_end_catalog();
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      metrics[i].value = values[i];
    }
  } else {
    Workload::Layers layers;
    workload->setup(check, &layers);
    double traced_run_s = 0.0;
    double traced_cpu = 0.0;
    workload->iterate(check, traced_run_s, traced_cpu, &layers);
    workload->probe(check, traced_run_s, layers);
    layers["obs.trace_overhead_s"] = traced_run_s - run_s;
    metrics = per_layer_catalog();
    for (auto& m : metrics) {
      const auto it = layers.find(m.name);
      if (it != layers.end()) m.value = it->second;
    }
  }

  if (!o.write_golden.empty()) write_records(o.write_golden, check.observed());
  for (const auto& e : check.errors()) std::cerr << "check failed: " << e << '\n';

  std::ostringstream info;
  info << "{\"env\": {\"workload\": " << quote(o.workload)
       << ", \"seed\": " << o.seed << ", \"host_threads\": " << kHostThreads
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"compiler\": " << quote(GB_PERFBENCH_COMPILER)
       << ", \"build_type\": " << quote(GB_PERFBENCH_BUILD_TYPE)
       << ", \"profile\": " << quote(o.profile)
       << ", \"golden\": " << (golden.empty() ? "false" : "true")
       << ", \"setup_s_all\": " << numbers(setups)
       << ", \"run_s_all\": " << numbers(walls) << "}}";
  std::cout << info.str() << '\n';

  std::ostringstream out;
  out << "{\"correct\": " << (check.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << check.attempted()
      << ", \"failed\": " << check.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << quote(metrics[i].name)
        << ": {\"value\": " << number(metrics[i].value)
        << ", \"unit\": " << quote(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "gb_perfbench: " << e.what() << '\n';
    return 1;
  }
}
