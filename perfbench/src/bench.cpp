#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "trace.hpp"

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0)
    return (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string layer_table(int root, double wall) {
  // Call spans only: group spans (pass, map, request) are not layers,
  // and requests in flight overlap each other.
  std::map<std::string, double> by_module;
  for (const auto& [name, self] : Tracer::get().self_times(root, true)) {
    std::size_t cut = name.find_first_of("./");
    by_module[name.substr(0, cut)] += self;
  }
  double uncovered = (1.0 - Tracer::get().coverage(root)) * wall;
  char line[96];
  std::snprintf(line, sizeof line,
                "layer self-time, traced pass (wall %.4f s)\n", wall);
  std::string out = line;
  auto row = [&](const std::string& module, double self) {
    std::snprintf(line, sizeof line, "  %-16s %10.4f s %7.1f%%\n",
                  module.c_str(), self, wall > 0 ? 100.0 * self / wall : 0.0);
    out += line;
  };
  for (const auto& [module, self] : by_module) row(module, self);
  row("(outside calls)", uncovered);
  return out;
}

}  // namespace perfbench
