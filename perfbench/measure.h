// Measuring stick of the host benchmark: clocks, resource usage, order
// statistics and content hashes. Deliberately independent of src/stats/
// and src/obs/, so a change to those layers never changes how they are
// measured.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic wall-clock seconds.
double wall_now();

/// User + system CPU seconds of the whole process so far.
double cpu_now();

/// Peak resident set size of the process, MiB.
double peak_rss_mb();

/// Median (midpoint of the two middle values for even counts); 0 when
/// empty.
double median(std::vector<double> values);

/// Quantile by linear interpolation between closest ranks (the method
/// Python's statistics.quantiles calls "inclusive"); q in [0, 1].
double quantile(std::vector<double> values, double q);

/// FNV-1a 64-bit over raw bytes, chainable through `seed`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = 0xcbf29ce484222325ull);
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

std::string hex64(std::uint64_t value);

/// Wall-clock seconds of one call.
template <typename F>
double time_call(F&& f) {
  const double t0 = wall_now();
  f();
  return wall_now() - t0;
}

/// Golden records of one seed: "<kind>/<key>" -> expected value. Read
/// from a text file of "<name> <value>" lines; '#' starts a comment.
using Records = std::map<std::string, std::string>;
Records read_records(const std::string& path);
void write_records(const std::string& path, const Records& records);

}  // namespace perfbench
