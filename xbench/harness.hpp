// Measurement harness shared by the xbench workloads: host clock, order
// statistics, benchmark-side spans, the max-min certificate, reference
// values and the result record every run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace xbench {

// Seconds on the steady host clock.
double now_s();

// Peak resident set of this process so far, in MB.
double peak_rss_mb();

double median(std::vector<double> v);
// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);

// The highest of p99, p95, p90, p75, p50 that still has at least ten
// samples above its rank (nearest rank: `n - ceil(p/100 * n)` beyond). With
// fewer than 20 samples no candidate qualifies and the maximum (p100) is
// reported instead, so the label always says which order statistic it is.
struct Tail {
  double pct = 100;
  double value = 0;
  std::size_t samples = 0;
};
Tail tail_percentile(const std::vector<double>& v);

// Benchmark-side spans around calls into the library's public functions.
// Kept in memory while the run lasts and written out when it ends. Spans of
// one operation share `op`; `parent` is the index of the enclosing span or -1.
struct Span {
  const char* name = nullptr;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::uint64_t op = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Starts a new operation id for the spans that follow.
  void next_op() { ++op_; }
  int begin(const char* name);
  void end(int span);

  // RAII span; a disabled tracer records nothing.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  // Per span name: total duration and self time (duration minus the part
  // covered by direct children), in milliseconds.
  std::map<std::string, std::pair<double, double>> totals_ms() const;
  // Writes every span as one JSON array; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t op_ = 0;
};

// Max-min fairness certificate for one steady-state problem: every link's
// load stays within its capacity (1 + 1e-9), and every flow crosses a
// saturated link on which no flow gets a higher rate. Returns an empty
// string when the certificate holds, otherwise the first violation found.
std::string check_maxmin(const std::vector<double>& capacities,
                         const std::vector<std::vector<int>>& paths,
                         const std::vector<double>& rates);

// Relative comparison at the golden tolerance.
bool close_rel(double got, double want, double rtol = 1e-6);

// Reference outputs recorded for fixed seeds. File format: one value per
// line, `<workload> <seed> <index> <value>`; lines starting with '#' are
// comments.
class References {
 public:
  bool load(const std::string& path);
  void set(const std::string& workload, std::uint64_t seed,
           std::vector<double> values);
  // Null when nothing was recorded for this workload and seed.
  const std::vector<double>* find(const std::string& workload,
                                  std::uint64_t seed) const;

 private:
  std::map<std::pair<std::string, std::uint64_t>, std::vector<double>> v_;
};

// What one workload run reports. `failed` counts failed ops: throws, serve
// error sentinels, violated output checks and outputs off their references.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Metric values by name; a metric the workload does not exercise is
  // absent and reported as 0.
  std::map<std::string, double> metrics;
  // Outputs compared against (or recorded into) the reference file.
  std::vector<double> reference_values;

  bool correct() const { return failed == 0; }
};

// (name, unit) of every metric a result line carries, in print order.
using MetricSpec = std::vector<std::pair<const char*, const char*>>;

// The result line: one JSON object with correct/attempted/failed/metrics,
// the metrics being exactly those of `spec`. A non-finite value makes the
// result incorrect.
std::string result_json(const Outcome& o, const MetricSpec& spec);

}  // namespace xbench
