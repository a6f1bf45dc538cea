// The three workloads of the host benchmark. Each is one closed-loop
// client: an untimed prepare step (warm workloads only), a set-up that
// is repeated and timed, and a run iteration that is repeated for the
// requested number of seconds. A traced pass re-times the same public
// calls one by one and probes the layers underneath.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "measure.h"

namespace perfbench {

/// Input sizes. `full` is what the benchmark measures; `tiny` runs every
/// workload in seconds for the self-test.
struct Profile {
  double scale = 0.0;  // cold_build, serve_mixed: every graph but Friendster
  double cold_friendster_scale = 0.0;  // cold_build: Friendster
  double friendster_scale = 0.0;       // warm workloads: Friendster
  double grid_scale = 0.0;             // figure_grid: KGS and WikiTalk
  std::uint64_t serve_jobs = 0;
  int setup_reps = 0;  // timed set-ups per run; the median is reported
  int min_iterations = 0;
};

Profile profile_by_name(const std::string& name);

/// Output check behind `ok_frac`. Every checked operation either matches
/// the golden table of its seed, or — when the seed has no table — the
/// first value recorded under the same name in this process (reruns are
/// deterministic, read-back equals generated).
class Checker {
 public:
  explicit Checker(Records golden) : golden_(std::move(golden)) {}

  /// One operation that returned; ok iff `value` is the expected record.
  void record(const std::string& name, const std::string& value);
  /// One operation whose output broke an invariant.
  void fail(const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const Records& observed() const { return observed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  Records golden_;
  Records observed_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Work done by one run iteration, for the throughput metrics.
struct IterationWork {
  double edges = 0.0;  // input edges of every kernel/cell/job run
  double cells = 0.0;  // algorithm runs on one graph
  double jobs = 0.0;   // requests the client submitted
};

struct Env {
  std::uint64_t seed = 0;
  std::uint32_t threads = 0;  // host threads, set by the caller
  std::string dir;  // private scratch directory, emptied by the caller
  Profile profile;
};

class Workload {
 public:
  explicit Workload(Env env)
      : env_(std::move(env)), pool_(env_.threads) {}
  virtual ~Workload() = default;

  using Layers = std::map<std::string, double>;

  /// Untimed: build the graphs a warm workload loads in set-up.
  virtual void prepare() {}
  /// One timed set-up; returns its wall seconds. With `layers`, the
  /// calls are also timed one by one into it.
  virtual double setup(Checker& check, Layers* layers) = 0;
  /// Edges one set-up makes ready. When non-zero, edges_per_s counts
  /// them per set-up second (cold_build); otherwise it counts the run's
  /// input edges per run second.
  virtual double setup_edges() const { return 0.0; }
  /// One run iteration. Only the workload's own calls go into `wall` and
  /// `cpu`; checking the outputs is left out. With `layers`, each call is
  /// also timed into it.
  virtual IterationWork iterate(Checker& check, double& wall, double& cpu,
                                Layers* layers) = 0;
  /// After a traced iteration: the layers underneath, each called on its
  /// own. `traced_run_s` is that iteration's run time.
  virtual void probe(Checker& check, double traced_run_s,
                     Layers& layers) = 0;

 protected:
  Env env_;
  gb::ThreadPool pool_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, Env env);

/// Every per-layer metric name and unit, in output order. A workload
/// that does not call a layer reports it as 0.
const std::vector<Metric>& per_layer_catalog();

}  // namespace perfbench
