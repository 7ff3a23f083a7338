#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace xbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
// 1-based nearest rank of percentile p among n samples.
std::size_t nearest_rank(double p, std::size_t n) {
  const auto r = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}
}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(p, v.size()) - 1];
}

Tail tail_percentile(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  for (double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const std::size_t rank = nearest_rank(p, s.size());
    if (s.size() - rank >= 10) {
      t.pct = p;
      t.value = s[rank - 1];
      return t;
    }
  }
  t.pct = 100;
  t.value = s.back();
  return t;
}

int Tracer::begin(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  s.start = now_s();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end = now_s();
  // Spans close in LIFO order; the RAII scopes guarantee it.
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

std::map<std::string, std::pair<double, double>> Tracer::totals_ms() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, std::pair<double, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end - spans_[i].start;
    auto& [total, self] = out[spans_[i].name];
    total += 1e3 * d;
    self += 1e3 * (d - child[i]);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  f << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"op\":" << s.op
      << ",\"parent\":" << s.parent << std::setprecision(9)
      << ",\"start_s\":" << s.start - t0 << ",\"end_s\":" << s.end - t0
      << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

std::string check_maxmin(const std::vector<double>& capacities,
                         const std::vector<std::vector<int>>& paths,
                         const std::vector<double>& rates) {
  if (rates.size() != paths.size()) return "rate vector size mismatch";
  std::vector<double> load(capacities.size(), 0.0);
  std::vector<double> max_rate(capacities.size(), 0.0);
  for (std::size_t f = 0; f < paths.size(); ++f) {
    if (!(rates[f] >= 0) || !std::isfinite(rates[f]))
      return "flow " + std::to_string(f) + " has rate " +
             std::to_string(rates[f]);
    for (int l : paths[f]) {
      const auto li = static_cast<std::size_t>(l);
      load[li] += rates[f];
      max_rate[li] = std::max(max_rate[li], rates[f]);
    }
  }
  for (std::size_t l = 0; l < capacities.size(); ++l)
    if (load[l] > capacities[l] * (1 + 1e-9))
      return "link " + std::to_string(l) + " carries " +
             std::to_string(load[l]) + " over capacity " +
             std::to_string(capacities[l]);
  for (std::size_t f = 0; f < paths.size(); ++f) {
    bool bottleneck = false;
    for (int l : paths[f]) {
      const auto li = static_cast<std::size_t>(l);
      const bool saturated = load[li] >= capacities[li] * (1 - 1e-9);
      if (saturated && rates[f] * (1 + 1e-9) >= max_rate[li]) {
        bottleneck = true;
        break;
      }
    }
    if (!bottleneck)
      return "flow " + std::to_string(f) + " has no bottleneck link";
  }
  return {};
}

bool close_rel(double got, double want, double rtol) {
  if (got == want) return true;
  return std::abs(got - want) <= rtol * std::max(std::abs(got), std::abs(want));
}

bool References::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) return false;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string w;
    std::uint64_t seed = 0;
    std::size_t idx = 0;
    double value = 0;
    if (!(in >> w >> seed >> idx >> value)) return false;
    auto& vec = v_[{w, seed}];
    if (idx != vec.size()) return false;  // indices are dense and in order
    vec.push_back(value);
  }
  return true;
}

void References::set(const std::string& workload, std::uint64_t seed,
                     std::vector<double> values) {
  v_[{workload, seed}] = std::move(values);
}

const std::vector<double>* References::find(const std::string& workload,
                                             std::uint64_t seed) const {
  const auto it = v_.find({workload, seed});
  return it == v_.end() ? nullptr : &it->second;
}

std::string result_json(const Outcome& o, const MetricSpec& spec) {
  bool finite = true;
  std::ostringstream m;
  m << std::setprecision(17);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const auto it = o.metrics.find(spec[i].first);
    double v = it == o.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      finite = false;
      v = 0.0;
    }
    m << (i ? ", " : "") << "\"" << spec[i].first << "\": {\"value\": " << v
      << ", \"unit\": \"" << spec[i].second << "\"}";
  }
  std::ostringstream s;
  s << "{\"correct\": " << (o.correct() && finite ? "true" : "false")
    << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
    << ", \"metrics\": {" << m.str() << "}}";
  return s.str();
}

}  // namespace xbench
