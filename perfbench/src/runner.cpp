// perfbench runner: runs one workload against the pipesched binary, checks
// every answer against a serial uncached reference solve, and prints each
// metric by name with its unit and sample counts. The last stdout line is
// the machine-readable result: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench_runner --bin PATH --work DIR --workload NAME --seed N
//                    --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics (binary run with tracing off).
// --trace 1 repeats the run with the binary's tracing on, reads the counts
// only the program can see from its existing outputs (--trace on lines,
// --stats-output, GET /stats), replays the inputs in-process through each
// layer's public functions with spans, and reports the per-layer metrics.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "outcome_diff.hpp"
#include "process.hpp"

namespace perfbench {
namespace {

using pipesched::io::parseJson;

// ---------------------------------------------------------------------------
// Workload constants. They are part of the benchmark definition: later
// changes are measured against them and never rescale them.
// ---------------------------------------------------------------------------

/// The binary's default result-cache capacity, the yardstick for key spaces.
constexpr std::size_t kCacheCapacity = 1024;
/// Set-up is short and noisy, so each run spawns this many times and
/// reports the median.
constexpr int kSetupSpawns = 21;

// warm_stdio: a hot set far smaller than the cache, mixing generated and
// inline-text lines, so nearly every line is a cache hit and the cost is
// parse, fingerprint, lookup and emit.
constexpr std::size_t kWarmHotKind = 16;
constexpr std::size_t kWarmHotText = 16;
constexpr std::size_t kWarmLines = 10000;  ///< lines per `serve --input` run
/// Traced run only: lines/s written into a stdin pipe for the paced pass.
/// Its per-line latency is reported per layer: on a shared host the tail of
/// a sub-millisecond answer measures the host's scheduling stalls.
constexpr double kWarmPacedRate = 2000;
constexpr double kWarmPacedShare = 0.3;  ///< share of --seconds for the paced pass

/// Open-loop latency percentiles are taken over this many consecutive slices
/// of a run's samples and reported as the median slice (see
/// blockPercentile); throughputs are the median over a run's invocations. A
/// host that steals CPU for a few seconds then moves one slice, not the run.
constexpr std::size_t kBlocks = 7;

// cold_batch: distinct instances of every regime and mixed size, ~10% in-batch
// duplicates, every portfolio member: member solve dominates.
constexpr std::size_t kColdDistinct = 144;
constexpr std::size_t kColdDuplicates = 16;
/// Lines answered by `batch --stream` runs before a run may stop: enough for
/// a p99 with 10 samples beyond it.
constexpr std::size_t kColdMinLines = 1000;

// http_zipf: Zipf keys over 4x the cache capacity, so hits, misses, inserts
// and evictions interleave; a closed-loop burst, plus open-loop 1-line POSTs
// at fixed rates in the traced run.
constexpr std::size_t kZipfKeys = 4 * kCacheCapacity;
constexpr double kZipfExponent = 1.0;
/// Closed-loop warm-up: enough POSTs to bring the LRU cache to its steady
/// state before any rate is timed.
constexpr std::size_t kZipfWarmupPosts = 3000;
/// Closed-loop burst: the throughput and latency figures. It runs in chunks
/// of 1000 POSTs (the fewest that support a p99) for this share of
/// --seconds, and each figure is the median over chunks. Its POSTs carry
/// several lines, so the workers rather than the per-request thread
/// hand-offs set the pace; 8 lines on each of nproc connections stay well
/// inside the default --queue-capacity of 64.
constexpr std::size_t kZipfBurstPosts = 1000;
constexpr std::size_t kZipfBurstLines = 8;
constexpr double kZipfBurstShare = 0.9;
/// Fixed POST rates (per second): r1 < r2 < r3 at about a quarter, half and
/// three quarters of the open-loop capacity seen when the benchmark was
/// defined (2200-2800/s on 4 cores). Near capacity a rung passes or fails by
/// chance, so the goodput ladder leaves that band between two rungs; above it
/// the rungs are a third apart.
constexpr double kZipfRates[] = {600, 1200, 1800};
constexpr double kZipfLadder[] = {600, 1200, 1800, 3400, 4500, 6000, 8000, 10500};
/// Share of --seconds each timed phase lasts: r2 carries the reported
/// latencies and gets the most samples.
constexpr double kZipfPhaseShare[] = {0.15, 0.4, 0.15};
constexpr double kZipfRungShare = 0.1;
/// A rung passes when >= 99% of its POSTs are answered correctly within
/// this limit and the backlog did not grow.
constexpr double kZipfLatencyLimitMs = 50;
/// A run whose generator ran later than this at p99 measured itself.
constexpr double kLateLimitMs = 10;
/// Admission probe: POSTs of 10x the default --queue-capacity (64) lines to
/// an idle server.
constexpr std::size_t kBulkLines = 640;
constexpr std::size_t kBulkPosts = 10;

struct Options {
  std::string bin;
  std::string work;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t nproc = 1;
};

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string detail;
};

class Report {
 public:
  void e2e(const std::string& name, const std::string& unit, double value,
           const std::string& detail = {}) {
    e2e_.push_back(Metric{name, unit, value, detail});
  }
  void layer(const std::string& name, const std::string& unit, double value,
             const std::string& detail = {}) {
    layer_.push_back(Metric{name, unit, value, detail});
  }
  void info(const std::string& line) { std::cout << "info " << line << "\n"; }
  void mismatch(const std::string& what) {
    ++mismatches_;
    if (mismatches_ <= 5) std::cout << "mismatch " << what << "\n";
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const { return mismatches_ == 0 && failed == 0; }

  void print(bool trace) const {
    const std::vector<Metric>& metrics = trace ? layer_ : e2e_;
    for (const Metric& m : metrics) {
      std::cout << "metric " << m.name << " = " << format(m.value) << " " << m.unit;
      if (!m.detail.empty()) std::cout << "  (" << m.detail << ")";
      std::cout << "\n";
    }
    std::cout << "{\"correct\": " << (correct() ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
                << format(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  static std::string format(double v) {
    // JSON has no infinity; a percentile that failures pushed to +infinity
    // prints as the largest double, never as a flattering number.
    if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.9g", v);
    return buffer;
  }
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::size_t mismatches_ = 0;
};

std::string samples(const Percentile& p) {
  return "samples=" + std::to_string(p.samples) + ", beyond=" + std::to_string(p.beyond);
}

/// Reports a latency percentile in ms; refuses one the sample cannot support.
double reportable(const Percentile& p, const std::string& name) {
  if (!p.supported()) {
    throw std::runtime_error(name + ": only " + std::to_string(p.beyond) +
                             " samples beyond the percentile (need " +
                             std::to_string(kTailSamples) + ")");
  }
  return p.value * 1e3;
}

// ---------------------------------------------------------------------------
// Output checking.
// ---------------------------------------------------------------------------

/// Compares answered outcome objects with the reference for their request.
/// Masked: index, line, from_cache, deduped (two identical warm runs
/// disagree on them), trace (timings), and the per-solver reused/seeded
/// work-sharing counts, which the program documents as depending on cache
/// state and timing just like from_cache.
class Checker {
 public:
  explicit Checker(std::vector<Json> references)
      : refs_(std::move(references)), verified_(refs_.size()) {
    mask_.topLevel = {"index", "line", "from_cache", "deduped", "trace"};
    mask_.solver = {"reused", "seeded"};
  }

  /// Returns "" when `text` (one outcome object) answers reference `ref`.
  std::string check(const Json& outcome, std::size_t ref) {
    return diffOutcome(outcome, refs_[ref], mask_);
  }

  std::string check(std::string_view text, std::size_t ref) {
    // Warm outputs repeat the same bytes after the per-line prefix; a
    // suffix already verified against this reference needs no second parse.
    const std::size_t name = text.find("\"name\":");
    std::string suffix(name == std::string_view::npos ? text : text.substr(name));
    if (verified_[ref].count(suffix) != 0) return {};
    std::string diff;
    try {
      diff = diffOutcome(parseJson(text), refs_[ref], mask_);
    } catch (const std::exception& e) {
      diff = e.what();
    }
    if (diff.empty() && verified_[ref].size() < 64) verified_[ref].insert(std::move(suffix));
    return diff;
  }

 private:
  std::vector<Json> refs_;
  std::vector<std::unordered_set<std::string>> verified_;
  Mask mask_;
};

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// The corpus as a JSONL request file.
std::string joinLines(const Corpus& c) {
  std::string out;
  for (const std::uint32_t key : c.sequence) {
    out += c.distinct[key];
    out += '\n';
  }
  return out;
}

Corpus warmCorpus(std::uint64_t seed) {
  Rng rng(seed, 11);
  Corpus c;
  for (std::size_t i = 0; i < kWarmHotKind + kWarmHotText; ++i) {
    const bool kind = i < kWarmHotKind;
    c.distinct.push_back(requestLine(rng, kind, 8, 8, 4, 4));
    c.isKind.push_back(kind);
  }
  for (std::size_t i = 0; i < kWarmLines; ++i) {
    c.sequence.push_back(static_cast<std::uint32_t>(rng.range(0, c.distinct.size() - 1)));
  }
  return c;
}

Corpus coldCorpus(std::uint64_t seed) {
  Rng rng(seed, 23);
  Corpus c;
  for (std::size_t i = 0; i < kColdDistinct; ++i) {
    c.distinct.push_back(requestLine(rng, true, 4, 14, 3, 8));
    c.isKind.push_back(true);
    c.sequence.push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 0; i < kColdDuplicates; ++i) {
    c.sequence.push_back(static_cast<std::uint32_t>(rng.range(0, kColdDistinct - 1)));
  }
  for (std::size_t i = c.sequence.size() - 1; i > 0; --i) {
    std::swap(c.sequence[i], c.sequence[rng.range(0, i)]);
  }
  return c;
}

/// Zipf keys: a random permutation assigns ranks, so the hot keys are not
/// the first lines generated.
Corpus zipfCorpus(std::uint64_t seed, std::size_t draws) {
  Rng rng(seed, 37);
  Corpus c;
  for (std::size_t i = 0; i < kZipfKeys; ++i) {
    c.distinct.push_back(requestLine(rng, true, 6, 6, 3, 3));
    c.isKind.push_back(true);
  }
  std::vector<double> cdf(kZipfKeys);
  double total = 0;
  for (std::size_t k = 0; k < kZipfKeys; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = total;
  }
  std::vector<std::uint32_t> keyOfRank(kZipfKeys);
  std::iota(keyOfRank.begin(), keyOfRank.end(), 0u);
  for (std::size_t i = kZipfKeys - 1; i > 0; --i) std::swap(keyOfRank[i], keyOfRank[rng.range(0, i)]);
  for (std::size_t i = 0; i < draws; ++i) {
    const double u = rng.unit() * total;
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    c.sequence.push_back(keyOfRank[std::min(rank, kZipfKeys - 1)]);
  }
  return c;
}

/// Poisson arrivals at `rate` per second over `seconds`, offset by `start`.
std::vector<double> poissonSchedule(Rng& rng, double rate, double seconds, double start) {
  std::vector<double> due;
  double t = start;
  for (;;) {
    t += -std::log(1.0 - rng.unit()) / rate;
    if (t >= start + seconds) return due;
    due.push_back(t);
  }
}

/// What each workload's inputs were chosen for.
void reportProperties(Report& report, const Corpus& c, std::size_t lines) {
  std::set<std::uint32_t> keys(c.sequence.begin(), c.sequence.begin() + lines);
  std::size_t kind = 0;
  double bytes = 0;
  for (std::size_t i = 0; i < lines; ++i) {
    kind += c.isKind[c.sequence[i]] ? 1 : 0;
    bytes += static_cast<double>(c.distinct[c.sequence[i]].size() + 1);
  }
  std::ostringstream s;
  s << "inputs: lines=" << lines << " distinct_keys=" << keys.size()
    << " keys_over_cache=" << static_cast<double>(keys.size()) / kCacheCapacity
    << " repeat_share=" << 1.0 - static_cast<double>(keys.size()) / static_cast<double>(lines)
    << " kind_lines=" << kind << " text_lines=" << lines - kind
    << " mean_line_bytes=" << bytes / static_cast<double>(lines);
  report.info(s.str());
}

// ---------------------------------------------------------------------------
// Reading the program's own outputs (traced runs).
// ---------------------------------------------------------------------------

/// Metric registry snapshot as written by --stats-output / GET /stats.
struct Registry {
  Json root;

  [[nodiscard]] const Json* metrics() const {
    const Json* m = root.find("metrics");
    return m != nullptr ? m : &root;
  }
  [[nodiscard]] double counter(const std::string& name) const {
    const Json* c = metrics()->find("counters");
    return c != nullptr ? num(*c, name) : 0;
  }
  /// Histogram field ("p50", "p99", "count", "sum", "mean"); ns for times.
  [[nodiscard]] double hist(const std::string& name, const std::string& field) const {
    const Json* h = metrics()->find("histograms");
    const Json* row = h != nullptr ? h->find(name) : nullptr;
    return row != nullptr ? num(*row, field) : 0;
  }
  [[nodiscard]] double section(const std::string& section, const std::string& field) const {
    const Json* s = root.find(section);
    return s != nullptr ? num(*s, field) : 0;
  }
};

/// Last JSON line of a --stats-output file (the terminal snapshot).
Registry lastSnapshot(const std::string& path) {
  std::istringstream in(readFile(path));
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  return Registry{last.empty() ? Json{} : parseJson(last)};
}

std::string text(const Json& object, const std::string& key) {
  const Json* v = object.find(key);
  return v != nullptr ? v->text : std::string();
}

/// Per-member totals from outcome objects of fresh solves.
struct MemberTotals {
  std::map<std::string, double> seconds;  ///< by solver name
  std::map<std::string, double> points;
  std::map<std::string, double> novel;
  std::vector<double> mergeSamples;

  void add(const Json& outcome) {
    const Json* cached = outcome.find("from_cache");
    const Json* deduped = outcome.find("deduped");
    if ((cached != nullptr && cached->boolean) || (deduped != nullptr && deduped->boolean)) return;
    const Json* solvers = outcome.find("solvers");
    if (solvers == nullptr || solvers->items.empty()) return;
    for (const Json& s : solvers->items) {
      const std::string name = text(s, "solver");
      points[name] += num(s, "points");
      novel[name] += num(s, "novel");
    }
    if (const Json* trace = outcome.find("trace")) {
      if (const Json* members = trace->find("members")) {
        for (const Json& m : members->items) seconds[text(m, "solver")] += num(m, "seconds");
      }
      if (const Json* stages = trace->find("stages")) {
        mergeSamples.push_back(num(*stages, "merge"));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Per-layer metrics (traced runs).
// ---------------------------------------------------------------------------

/// Everything one traced run gathered; absent sources stay zero. Every
/// per-layer metric is printed on every workload; one that does not apply
/// to a workload reads 0.
struct LayerInputs {
  ReplayResult replay;
  std::map<std::string, std::size_t> stageThreads;  ///< threads serving each stage
  Registry registry;
  double cacheHits = 0, cacheMisses = 0, cacheEvictions = 0;
  double subHits = 0, subMisses = 0, subEvictions = 0;
  MemberTotals members;
  double solved = 0;  ///< fresh solves behind the registry's counters
  double batchRequests = 0, batchSolved = 0, batchDeduped = 0;  ///< batch --json "stats"
  double traceOverheadShare = 0;
  std::vector<double> healthzRtt;
  double shedPosts = 0;
  double wastedSolveRatio = 0;
  double bytesWrittenPerLine = 0;
  double lateP99Ms = 0;
  double maxInFlight = 0;
  double goodput = 0;
  std::vector<std::pair<Percentile, Percentile>> rateLatency;  ///< (p50, p99) per rate
  std::pair<Percentile, Percentile> stdioLatency;  ///< paced stdin pass (p50, p99)
};

void cacheFromSection(LayerInputs& in, const Json* cache, const Json* sub) {
  if (cache != nullptr) {
    in.cacheHits = num(*cache, "hits");
    in.cacheMisses = num(*cache, "misses");
    in.cacheEvictions = num(*cache, "evictions");
  }
  if (sub != nullptr) {
    in.subHits = num(*sub, "hits");
    in.subMisses = num(*sub, "misses");
    in.subEvictions = num(*sub, "evictions");
  }
}

std::string memberMetricId(std::string id) {
  std::replace(id.begin(), id.end(), ':', '-');
  return id;
}

void reportLayers(Report& report, const LayerInputs& in) {
  const ReplayResult& r = in.replay;
  const std::vector<double> self = selfTimes(r.spans);
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, double> busy;
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    durations[r.spans[i].name].push_back(r.spans[i].end - r.spans[i].start);
    busy[r.spans[i].name] += self[i];
  }
  const auto us = [&](const std::string& span, double q) {
    const Percentile p = percentile(durations[span], q);
    return std::make_pair(p.value * 1e6, samples(p));
  };
  const auto ms = [&](const std::string& span, double q) {
    const Percentile p = percentile(durations[span], q);
    return std::make_pair(p.value * 1e3, samples(p));
  };
  const auto emit = [&](const std::string& name, const std::string& unit,
                        const std::pair<double, std::string>& v) {
    report.layer(name, unit, v.first, v.second);
  };
  const double lines = std::max<double>(1, static_cast<double>(r.requests));

  emit("io.parse.us.p50", "us", us("io.parse", 0.5));
  report.layer("io.parse.busy_s", "s", busy["io.parse"]);
  emit("workload.generate.us.p50", "us", us("workload.generate", 0.5));
  emit("io.emit.us.p50", "us", us("io.emit", 0.5));
  emit("io.emit.us.p99", "us", us("io.emit", 0.99));
  report.layer("io.emit.busy_s", "s", busy["io.emit"]);
  report.layer("io.emit.bytes_per_line", "B", static_cast<double>(r.emitBytes) / lines);
  emit("service.fingerprint.us.p50", "us", us("service.fingerprint", 0.5));
  report.layer("service.fingerprint.busy_s", "s", busy["service.fingerprint"]);

  const double lookups = in.cacheHits + in.cacheMisses;
  report.layer("service.cache.hit_ratio", "ratio", lookups > 0 ? in.cacheHits / lookups : 0,
               "hits=" + std::to_string(in.cacheHits) + ", lookups=" + std::to_string(lookups));
  emit("service.cache.lookup_us.p50", "us", us("service.cache.get", 0.5));
  report.layer("service.cache.evictions", "count", in.cacheEvictions);
  const double subLookups = in.subHits + in.subMisses;
  report.layer("service.subcache.hit_ratio", "ratio", subLookups > 0 ? in.subHits / subLookups : 0,
               "lookups=" + std::to_string(subLookups));
  report.layer("service.subcache.evictions", "count", in.subEvictions);

  emit("service.portfolio.ms.p50", "ms", ms("service.portfolio", 0.5));
  emit("service.portfolio.ms.p99", "ms", ms("service.portfolio", 0.99));
  report.layer("service.portfolio.busy_s", "s", busy["service.portfolio"]);
  const Percentile merge = percentile(in.members.mergeSamples, 0.5);
  report.layer("service.merge.us.p50", "us", merge.value * 1e6, samples(merge));

  for (const auto& [id, solver] : memberCatalog()) {
    const std::string base = "service.member." + memberMetricId(id);
    const auto seconds = in.members.seconds.find(solver);
    report.layer(base + ".busy_s", "s",
                 seconds == in.members.seconds.end() ? 0 : seconds->second);
    const auto points = in.members.points.find(solver);
    const auto novel = in.members.novel.find(solver);
    const double pts = points == in.members.points.end() ? 0 : points->second;
    report.layer(base + ".novel_ratio", "ratio",
                 pts > 0 ? novel->second / pts : 0, "points=" + std::to_string(pts));
  }
  report.layer("service.batch.unique_ratio", "ratio",
               in.batchRequests > 0 ? in.batchSolved / in.batchRequests : 0,
               "solved=" + std::to_string(in.batchSolved) + ", deduped=" +
                   std::to_string(in.batchDeduped) + ", requests=" +
                   std::to_string(in.batchRequests));

  const double solved = std::max(1.0, in.solved);
  report.layer("core.delta.peeks", "count/request", in.registry.counter("eval.delta.peeks") / solved);
  report.layer("core.delta.replaces", "count/request",
               in.registry.counter("eval.delta.replaces") / solved);
  report.layer("core.delta.undos", "count/request", in.registry.counter("eval.delta.undos") / solved);

  report.layer("stream.queue_wait_us.p50", "us", in.registry.hist("stage.queue_wait", "p50") / 1e3,
               "count=" + std::to_string(in.registry.hist("stage.queue_wait", "count")));
  report.layer("stream.queue_wait_us.p99", "us", in.registry.hist("stage.queue_wait", "p99") / 1e3);
  report.layer("stream.coalesced", "count", in.registry.counter("stream.coalesced"));
  report.layer("stream.wasted_solve_ratio", "ratio", in.wastedSolveRatio);

  const Percentile rtt50 = percentile(in.healthzRtt, 0.5);
  const Percentile rtt99 = percentile(in.healthzRtt, 0.99);
  report.layer("net.healthz_rtt_us.p50", "us", rtt50.value * 1e6, samples(rtt50));
  report.layer("net.healthz_rtt_us.p99", "us", rtt99.value * 1e6, samples(rtt99));
  report.layer("net.shed_posts", "count", in.shedPosts,
               std::to_string(kBulkPosts) + " POSTs of " + std::to_string(kBulkLines) + " lines");
  report.layer("net.bytes_written_per_line", "B", in.bytesWrittenPerLine);
  report.layer("obs.trace_overhead_share", "ratio", in.traceOverheadShare);
  report.layer("http.goodput_rps", "POST/s", in.goodput,
               "answered within " + std::to_string(int(kZipfLatencyLimitMs)) +
                   " ms at the highest passing ladder rate");
  report.layer("loadgen.late_ms.p99", "ms", in.lateP99Ms);
  report.layer("loadgen.max_in_flight", "count", in.maxInFlight);
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string rate = ".r" + std::to_string(k + 1);
    const Percentile p50 = k < in.rateLatency.size() ? in.rateLatency[k].first : Percentile{};
    const Percentile p99 = k < in.rateLatency.size() ? in.rateLatency[k].second : Percentile{};
    report.layer("http.latency_p50_ms" + rate, "ms", p50.value * 1e3, samples(p50));
    report.layer("http.latency_p99_ms" + rate, "ms", p99.value * 1e3, samples(p99));
  }

  report.layer("stdio.latency_p50_ms", "ms", in.stdioLatency.first.value * 1e3,
               samples(in.stdioLatency.first) + " per slice, stdin at " +
                   std::to_string(int(kWarmPacedRate)) + " lines/s");
  report.layer("stdio.latency_p99_ms", "ms", in.stdioLatency.second.value * 1e3,
               samples(in.stdioLatency.second) + " per slice");

  const PipelineCriteria pipeline = derivePipeline(r.spans, in.stageThreads, r.requests);
  std::string stages;
  for (const auto& [stage, mean] : pipeline.stageMeanUs) {
    stages += stage + "=" + std::to_string(mean) + "us ";
  }
  report.layer("pipeline.period_us", "us", pipeline.periodUs, "bottleneck " + pipeline.bottleneck);
  report.layer("pipeline.latency_us", "us", pipeline.latencyUs, stages);
  report.layer("pipeline.bottleneck_share", "ratio", pipeline.bottleneckShare);
}

// ---------------------------------------------------------------------------
// Set-up time.
// ---------------------------------------------------------------------------

double setupOneShot(const Options& o, const std::vector<std::string>& argv) {
  std::vector<double> times;
  for (int i = 0; i < kSetupSpawns; ++i) {
    Child child(argv, Redirect{}, Redirect{}, Redirect{o.work + "/setup.err"});
    const Child::Exit e = child.wait();
    if (e.code != 0) throw std::runtime_error("set-up run failed: " + argv[1]);
    times.push_back(e.wallSeconds);
  }
  return median(times);
}

/// Spawns `serve --listen` and waits for its port file; returns the endpoint.
pipesched::net::Endpoint waitForPort(Child& child, const std::string& portFile,
                                     Clock::time_point started) {
  for (;;) {
    std::ifstream in(portFile);
    std::string host;
    int port = 0;
    if (in >> host >> port && port > 0) {
      pipesched::net::Endpoint e;
      e.host = host;
      e.port = static_cast<std::uint16_t>(port);
      return e;
    }
    if (secondsSince(started) > 30) throw std::runtime_error("server did not publish its port");
    int status = 0;
    if (::waitpid(child.pid(), &status, WNOHANG) == child.pid()) {
      throw std::runtime_error("server exited before publishing its port");
    }
    ::usleep(200);
  }
}

/// Solve workers of the HTTP server. The load generator's thread and the
/// server's event loop each keep a core of their own, so neither measures
/// contention with the workers.
std::size_t serverWorkers(const Options& o) { return o.nproc > 2 ? o.nproc - 2 : 1; }

std::vector<std::string> serveListenArgs(const Options& o, const std::string& portFile,
                                         bool trace) {
  const std::size_t workers = serverWorkers(o);
  std::vector<std::string> argv = {o.bin, "serve", "--listen", "127.0.0.1:0", "--port-file",
                                   portFile, "--threads", std::to_string(workers)};
  if (trace) {
    argv.push_back("--trace");
    argv.push_back("on");
  }
  return argv;
}

double setupListen(const Options& o) {
  std::vector<double> times;
  for (int i = 0; i < kSetupSpawns; ++i) {
    const std::string portFile = o.work + "/setup.port";
    std::remove(portFile.c_str());
    const auto started = Clock::now();
    Child child(serveListenArgs(o, portFile, false), Redirect{}, Redirect{},
                Redirect{o.work + "/setup.err"});
    const pipesched::net::Endpoint endpoint = waitForPort(child, portFile, started);
    times.push_back(secondsSince(started));
    // The server publishes its port file before it installs its SIGTERM
    // handler; one answered request shows the handler is in place.
    HttpClient probe(endpoint, 1);
    if (probe.roundTrip(renderGet("/healthz")).status != 200) {
      throw std::runtime_error("GET /healthz failed");
    }
    child.signal(SIGTERM);
    const int code = child.wait().code;
    if (code != 0) {
      throw std::runtime_error("server did not drain cleanly (exit " + std::to_string(code) + ")");
    }
  }
  return median(times);
}

// ---------------------------------------------------------------------------
// warm_stdio
// ---------------------------------------------------------------------------

struct StdioPass {
  std::size_t lines = 0;
  std::size_t okLines = 0;
  std::vector<double> rates;        ///< correct lines per second, per invocation
  std::vector<double> lineLatency;  ///< spawn to each answer line, run after run
  std::size_t runs = 0;
  double peakRssMb = 0;
  std::string stats;  ///< --stats-output path when traced
  MemberTotals members;
};

/// `serve --input FILE` over the whole corpus, repeated until `seconds`.
/// The whole input is there at spawn, so a line's latency runs from spawn to
/// the moment its answer line is read from serve's stdout pipe (serve
/// flushes every line); a wrong or missing answer counts as +infinity.
StdioPass warmThroughput(const Options& o, const Corpus& c, Checker& checker, Report& report,
                         double seconds, bool trace) {
  const std::string input = o.work + "/warm.jsonl";
  writeFile(input, joinLines(c));
  StdioPass pass;
  const auto start = Clock::now();
  do {
    std::vector<std::string> argv = {o.bin, "serve", "--input", input};
    if (trace) {
      pass.stats = o.work + "/warm.stats.jsonl";
      argv.insert(argv.end(), {"--trace", "on", "--stats-output", pass.stats});
    }
    Child child(argv, Redirect{}, Redirect{"", true}, Redirect{o.work + "/warm.err"}, true);
    const TimedLines out = readTimedLines(child);
    const Child::Exit e = child.wait();
    if (e.code != 0) throw std::runtime_error("serve exited with " + std::to_string(e.code));
    pass.peakRssMb = std::max(pass.peakRssMb, e.peakRssMb);
    if (out.lines.size() > c.sequence.size()) report.mismatch("warm: extra output lines");
    std::vector<double> latency(c.sequence.size(), kInf);
    const std::size_t okBefore = pass.okLines;
    for (std::size_t k = 0; k < std::min(out.lines.size(), c.sequence.size()); ++k) {
      const std::string diff = checker.check(out.lines[k], c.sequence[k]);
      if (diff.empty()) {
        ++pass.okLines;
        latency[k] = out.at[k];
      } else {
        report.mismatch("warm line " + std::to_string(k + 1) + ": " + diff);
      }
      if (trace && pass.runs == 0) pass.members.add(parseJson(out.lines[k]));
    }
    pass.lines += c.sequence.size();
    pass.rates.push_back(static_cast<double>(pass.okLines - okBefore) / e.wallSeconds);
    pass.lineLatency.insert(pass.lineLatency.end(), latency.begin(), latency.end());
    ++pass.runs;
  } while (secondsSince(start) < seconds);
  report.attempted += pass.lines;
  report.failed += pass.lines - pass.okLines;
  return pass;
}

/// `serve` over a stdin pipe, lines written open-loop at a fixed rate;
/// latency of each line runs from its due time to its answer line.
std::vector<double> warmPaced(const Options& o, const Corpus& c, Checker& checker,
                              Report& report, double seconds, double& peakRssMb) {
  // Every hot line once at t=0 warms the cache; the paced lines start after
  // those solves are done and are the only ones timed.
  Rng rng(o.seed, 5);
  std::vector<double> due(c.distinct.size(), 0.0);
  std::vector<std::uint32_t> keys(c.distinct.size());
  std::iota(keys.begin(), keys.end(), 0u);
  const std::size_t warm = keys.size();
  for (const double t : poissonSchedule(rng, kWarmPacedRate, seconds, 0.5)) {
    due.push_back(t);
    keys.push_back(cyclic(c.sequence, keys.size() - warm));
  }
  const std::size_t n = due.size();
  Child child({o.bin, "serve"}, Redirect{"", true}, Redirect{"", true},
              Redirect{o.work + "/paced.err"}, true);
  ::fcntl(child.stdinFd(), F_SETFL, O_NONBLOCK);
  char buffer[1 << 16];
  std::string out;
  std::vector<double> done(n, kInf);
  std::string pending;  // bytes of due lines not yet accepted by the pipe
  std::size_t nextDue = 0;
  std::size_t answered = 0;
  std::vector<std::string> answers(n);
  const auto start = Clock::now();
  while (answered < n) {
    const double now = secondsSince(start);
    if (now > seconds + 30) break;  // the answers stopped coming
    while (nextDue < n && due[nextDue] <= now) {
      pending += c.distinct[keys[nextDue]];
      pending += '\n';
      ++nextDue;
    }
    if (!pending.empty() && child.stdinFd() >= 0) {
      const ssize_t w = ::write(child.stdinFd(), pending.data(), pending.size());
      if (w > 0) pending.erase(0, static_cast<std::size_t>(w));
    }
    if (nextDue == n && pending.empty()) child.closeStdin();
    const double wake = nextDue < n ? due[nextDue] : now + 0.05;
    const double wait = std::max(0.0, wake - now);
    pollfd fds[2] = {{child.stdoutFd(), POLLIN, 0},
                     {child.stdinFd(), static_cast<short>(pending.empty() ? 0 : POLLOUT), 0}};
    const timespec timeout{static_cast<time_t>(wait),
                           static_cast<long>((wait - std::floor(wait)) * 1e9)};
    ::ppoll(fds, child.stdinFd() >= 0 ? 2 : 1, &timeout, nullptr);
    if (fds[0].revents & (POLLIN | POLLHUP)) {
      const ssize_t r = ::read(child.stdoutFd(), buffer, sizeof buffer);
      if (r <= 0) break;
      const double t = secondsSince(start);
      out.append(buffer, static_cast<std::size_t>(r));
      std::size_t eol;
      while ((eol = out.find('\n')) != std::string::npos && answered < n) {
        done[answered] = t;
        answers[answered] = out.substr(0, eol);
        out.erase(0, eol + 1);
        ++answered;
      }
    }
  }
  child.closeStdin();
  const Child::Exit e = child.wait();
  peakRssMb = std::max(peakRssMb, e.peakRssMb);
  std::vector<double> latency(n - warm, kInf);
  std::size_t ok = 0;
  for (std::size_t k = 0; k < answered; ++k) {
    const std::string diff = checker.check(answers[k], keys[k]);
    if (diff.empty()) {
      if (k >= warm) latency[k - warm] = done[k] - due[k];
      ++ok;
    } else {
      report.mismatch("paced line " + std::to_string(k + 1) + ": " + diff);
    }
  }
  report.attempted += n;
  report.failed += n - ok;
  return latency;
}

void runWarmStdio(const Options& o, Report& report) {
  const Corpus c = warmCorpus(o.seed);
  reportProperties(report, c, c.sequence.size());
  const double setup = setupOneShot(o, {o.bin, "serve"});
  Checker checker(referenceOutcomes(c.distinct, SolveSpec{false}, o.nproc));

  StdioPass pass = warmThroughput(o, c, checker, report, o.seconds, false);
  // Percentiles per run (every run answers the same kWarmLines lines),
  // reported as the median over runs.
  const Percentile p50 = blockPercentile(pass.lineLatency, 0.50, pass.runs);
  const Percentile p99 = blockPercentile(pass.lineLatency, 0.99, pass.runs);
  const double linesPerSecond = median(pass.rates);

  report.e2e("setup_s", "s", setup, std::to_string(kSetupSpawns) + " spawns, median");
  report.e2e("lines_per_s", "lines/s", linesPerSecond,
             "median of " + std::to_string(pass.rates.size()) + " runs of " +
                 std::to_string(kWarmLines) + " lines");
  report.e2e("peak_rss_mb", "MB", pass.peakRssMb);
  report.e2e("latency_p50_ms", "ms", reportable(p50, "latency_p50_ms"),
             samples(p50) + " per run, spawn to answer line, median of " +
                 std::to_string(pass.runs) + " runs");
  report.e2e("latency_p99_ms", "ms", reportable(p99, "latency_p99_ms"),
             samples(p99) + " per run");
  if (!o.trace) return;

  LayerInputs in;
  double pacedRss = 0;
  const std::vector<double> paced =
      warmPaced(o, c, checker, report, o.seconds * kWarmPacedShare, pacedRss);
  in.stdioLatency = {blockPercentile(paced, 0.50, kBlocks), blockPercentile(paced, 0.99, kBlocks)};
  // Traced: the same corpus with the binary's tracing on.
  StdioPass traced = warmThroughput(o, c, checker, report, o.seconds, true);
  const double tracedRate = median(traced.rates);
  in.registry = lastSnapshot(traced.stats);
  cacheFromSection(in, in.registry.root.find("cache"), in.registry.root.find("sub_cache"));
  in.solved = in.registry.section("scheduler", "solved");
  in.members = std::move(traced.members);
  in.traceOverheadShare = 1.0 - tracedRate / linesPerSecond;
  in.replay = replayLayers(c, SolveSpec{false});
  // stdio serve: the pump thread parses and emits; workers fingerprint,
  // look up and solve.
  const std::size_t workers = o.nproc;
  in.stageThreads = {{"io.parse", 1},
                     {"service.fingerprint", workers},
                     {"service.cache.get", workers},
                     {"service.portfolio", workers},
                     {"service.cache.put", workers},
                     {"io.emit", 1}};
  reportLayers(report, in);
}

// ---------------------------------------------------------------------------
// cold_batch
// ---------------------------------------------------------------------------

struct BatchPass {
  std::size_t lines = 0;
  std::size_t okLines = 0;
  double peakRssMb = 0;             ///< over the `--json` runs
  std::vector<double> rates;        ///< correct lines per second, per `--json` run
  std::vector<double> lineLatency;  ///< `--stream` runs: spawn to each answer line
  std::size_t streamRuns = 0;
  MemberTotals members;
  Json lastDocument;
};

/// `batch --requests FILE --portfolio-members all --json` (the solveBatch
/// engine), repeated until `seconds`; every run is a fresh process, so every
/// run is cold. `--json` answers only once the whole batch is done, so the
/// untraced pass alternates it with `batch --stream` runs of the same file,
/// which flush each answer line as it completes: a line's latency runs from
/// spawn to the moment its answer line is read, +infinity when wrong or
/// missing.
BatchPass coldBatches(const Options& o, const Corpus& c, Checker& checker, Report& report,
                      const std::string& input, double seconds, bool trace) {
  BatchPass pass;
  const std::vector<std::string> command = {o.bin, "batch", "--requests", input,
                                            "--portfolio-members", "all"};
  const auto check = [&](const Json& outcome, std::size_t k, const std::string& what) {
    const std::string diff = checker.check(outcome, c.sequence[k]);
    if (!diff.empty()) report.mismatch(what + " request " + std::to_string(k) + ": " + diff);
    pass.okLines += diff.empty() ? 1 : 0;
    return diff.empty();
  };
  const auto start = Clock::now();
  int run = 0;
  do {
    std::vector<std::string> argv = command;
    argv.push_back("--json");
    if (trace) argv.insert(argv.end(), {"--trace", "on"});
    const std::string out = o.work + "/cold.out";
    Child child(argv, Redirect{}, Redirect{out}, Redirect{o.work + "/cold.err"}, true);
    const Child::Exit e = child.wait();
    if (e.code != 0) throw std::runtime_error("batch exited with " + std::to_string(e.code));
    pass.peakRssMb = std::max(pass.peakRssMb, e.peakRssMb);
    Json doc = parseJson(readFile(out));
    const Json* requests = doc.find("requests");
    const std::size_t answered = requests != nullptr ? requests->items.size() : 0;
    if (answered != c.sequence.size()) report.mismatch("batch answered " + std::to_string(answered));
    const std::size_t okBefore = pass.okLines;
    for (std::size_t k = 0; k < std::min(answered, c.sequence.size()); ++k) {
      check(requests->items[k], k, "batch");
      if (trace && run == 0) pass.members.add(requests->items[k]);
    }
    pass.lines += c.sequence.size();
    pass.rates.push_back(static_cast<double>(pass.okLines - okBefore) / e.wallSeconds);
    pass.lastDocument = std::move(doc);
    ++run;
    if (trace) continue;

    argv = command;
    argv.push_back("--stream");
    Child streamed(argv, Redirect{}, Redirect{"", true}, Redirect{o.work + "/cold.err"});
    const TimedLines lines = readTimedLines(streamed);
    const int code = streamed.wait().code;
    if (code != 0) throw std::runtime_error("batch --stream exited with " + std::to_string(code));
    std::vector<double> latency(c.sequence.size(), kInf);
    std::vector<bool> seen(c.sequence.size(), false);
    for (std::size_t i = 0; i < lines.lines.size(); ++i) {
      Json line;
      try {
        line = parseJson(lines.lines[i]);
      } catch (const std::exception& ex) {
        report.mismatch(std::string("stream line: ") + ex.what());
        continue;
      }
      if (line.find("stats") != nullptr) continue;  // the trailing summary
      const Json* index = line.find("index");
      const std::size_t k = index != nullptr && index->isNumber()
                                ? static_cast<std::size_t>(index->number)
                                : c.sequence.size();
      if (k >= c.sequence.size() || seen[k]) {
        report.mismatch("stream line " + std::to_string(i + 1) + ": unexpected index");
        continue;
      }
      seen[k] = true;
      if (check(line, k, "stream")) latency[k] = lines.at[i];
    }
    pass.lines += c.sequence.size();
    pass.lineLatency.insert(pass.lineLatency.end(), latency.begin(), latency.end());
    ++pass.streamRuns;
  } while (secondsSince(start) < seconds || (!trace && pass.lineLatency.size() < kColdMinLines));
  report.attempted += pass.lines;
  report.failed += pass.lines - pass.okLines;
  return pass;
}

void runColdBatch(const Options& o, Report& report) {
  const Corpus c = coldCorpus(o.seed);
  reportProperties(report, c, c.sequence.size());
  const std::string input = o.work + "/cold.jsonl";
  writeFile(input, joinLines(c));
  const std::string empty = o.work + "/empty.jsonl";
  writeFile(empty, "");
  const double setup = setupOneShot(
      o, {o.bin, "batch", "--requests", empty, "--portfolio-members", "all", "--json"});
  Checker checker(referenceOutcomes(c.distinct, SolveSpec{true}, o.nproc));

  BatchPass pass = coldBatches(o, c, checker, report, input, o.seconds, false);
  const Percentile p50 = percentile(pass.lineLatency, 0.50);
  const Percentile p99 = percentile(pass.lineLatency, 0.99);
  const double linesPerSecond = median(pass.rates);
  report.e2e("setup_s", "s", setup, std::to_string(kSetupSpawns) + " spawns, median");
  report.e2e("lines_per_s", "lines/s", linesPerSecond,
             "median of " + std::to_string(pass.rates.size()) + " batch --json runs of " +
                 std::to_string(c.sequence.size()) + " lines");
  report.e2e("peak_rss_mb", "MB", pass.peakRssMb);
  report.e2e("latency_p50_ms", "ms", reportable(p50, "latency_p50_ms"),
             samples(p50) + ", spawn to answer line, pooled over " +
                 std::to_string(pass.streamRuns) + " batch --stream runs");
  report.e2e("latency_p99_ms", "ms", reportable(p99, "latency_p99_ms"), samples(p99));
  if (!o.trace) return;

  BatchPass traced = coldBatches(o, c, checker, report, input, o.seconds, true);
  LayerInputs in;
  in.traceOverheadShare = 1.0 - median(traced.rates) / linesPerSecond;
  cacheFromSection(in, pass.lastDocument.find("cache"), pass.lastDocument.find("sub_cache"));
  in.members = std::move(traced.members);
  // The delta-kernel counters live in the registry, which `stats` prints
  // after solving the same request file.
  const std::string statsOut = o.work + "/cold.stats.json";
  Child stats({o.bin, "stats", "--input", input, "--portfolio-members", "all"}, Redirect{},
              Redirect{statsOut}, Redirect{o.work + "/cold.err"});
  if (stats.wait().code != 0) throw std::runtime_error("stats failed");
  in.registry = Registry{parseJson(readFile(statsOut))};
  in.solved = in.registry.counter("service.requests_solved");
  // The solveBatch engine's own account of the untraced batch: requests it
  // solved (not deduplicated in-batch) over requests.
  if (const Json* stats = pass.lastDocument.find("stats")) {
    in.batchRequests = num(*stats, "requests");
    in.batchSolved = num(*stats, "solved");
    in.batchDeduped = num(*stats, "deduped");
  }
  in.replay = replayLayers(c, SolveSpec{true});
  // batch: the source is drained serially, requests solve on the pool, the
  // report is rendered once at the end.
  in.stageThreads = {{"io.parse", 1},
                     {"service.fingerprint", 1},
                     {"service.cache.get", 1},
                     {"service.portfolio", o.nproc},
                     {"service.cache.put", 1},
                     {"io.emit", 1}};
  reportLayers(report, in);
}

// ---------------------------------------------------------------------------
// http_zipf
// ---------------------------------------------------------------------------

struct Phase {
  enum class Kind { kWarmup, kRate, kBurst, kRung };
  Kind kind = Kind::kRate;
  double rate = 0;  ///< POST/s; 0 for the closed-loop phases
  std::size_t firstPost = 0;
  std::size_t posts = 0;
  std::size_t backlogAtLastDue = 0;
  bool passed = false;
  double goodLinesPerSecond = 0;
};

struct ZipfRun {
  std::vector<Phase> phases;  ///< warm-up, r1..r3, burst, then ladder rungs
  std::vector<PostRecord> posts;
  std::vector<std::uint32_t> keys;  ///< request lines sent, in order
  std::vector<std::size_t> keyEnd;  ///< per POST: end of its lines in `keys`
  std::vector<int> status;
  std::vector<std::string> bodies;
  std::size_t maxInFlight = 0;

  [[nodiscard]] std::size_t keyBegin(std::size_t post) const {
    return post == 0 ? 0 : keyEnd[post - 1];
  }

  [[nodiscard]] const Phase& find(Phase::Kind kind, std::size_t nth = 0) const {
    for (const Phase& p : phases) {
      if (p.kind == kind && nth-- == 0) return p;
    }
    throw std::runtime_error("phase not run");
  }
};

/// Which phases follow the warm-up, in this order.
enum ZipfPlan : unsigned { kPlanRates = 1, kPlanBurst = 2, kPlanLadder = 4 };

/// Drives one server through the warm-up and the planned phases: the fixed
/// rates, the closed-loop burst, and the goodput ladder above r3, which
/// stops at the first rung that fails twice.
ZipfRun zipfPhases(HttpClient& client, const Corpus& keys, std::uint64_t seed, double seconds,
                   unsigned planned) {
  Rng rng(seed, 17);
  std::vector<Phase> plan;
  plan.push_back(Phase{Phase::Kind::kWarmup});
  if (planned & kPlanRates) {
    for (const double r : kZipfRates) plan.push_back(Phase{Phase::Kind::kRate, r});
  }
  if (planned & kPlanBurst) plan.push_back(Phase{Phase::Kind::kBurst});
  if (planned & kPlanLadder) {
    for (const double r : kZipfLadder) {
      if (r > kZipfRates[2]) plan.push_back(Phase{Phase::Kind::kRung, r});
    }
  }
  ZipfRun run;
  std::size_t cursor = 0;
  bool retried = false;
  std::optional<Clock::time_point> burstStart;
  for (std::size_t p = 0; p < plan.size(); ++p) {
    Phase phase = plan[p];
    if (phase.kind == Phase::Kind::kBurst && !burstStart) burstStart = Clock::now();
    double length = 0;
    std::vector<double> due;
    if (phase.kind == Phase::Kind::kWarmup) {
      due.assign(kZipfWarmupPosts, 0.0);
    } else if (phase.kind == Phase::Kind::kBurst) {
      due.assign(kZipfBurstPosts, 0.0);
    } else {
      length = seconds * (phase.kind == Phase::Kind::kRate ? kZipfPhaseShare[p - 1] : kZipfRungShare);
      due = poissonSchedule(rng, phase.rate, length, 0.01);
    }
    const std::size_t lines = phase.kind == Phase::Kind::kBurst ? kZipfBurstLines : 1;
    std::vector<std::string> texts(due.size());
    std::vector<const std::string*> bodies;
    phase.firstPost = run.posts.size();
    for (std::size_t i = 0; i < due.size(); ++i) {
      for (std::size_t j = 0; j < lines; ++j) {
        const std::uint32_t key = cyclic(keys.sequence, cursor++);
        run.keys.push_back(key);
        texts[i] += keys.distinct[key];
        texts[i] += '\n';
      }
      run.keyEnd.push_back(run.keys.size());
      bodies.push_back(&texts[i]);
    }
    // A POST still unanswered this long after the phase's last arrival
    // counts as failed. Fixed rates get room for a slower host's backlog;
    // closed-loop phases are all due at once and run to completion.
    const double drain = phase.kind == Phase::Kind::kRung ? 10.0 : length > 0 ? 30.0 : 60.0;
    OpenLoopResult r = runOpenLoop(client, due, bodies, drain);
    phase.posts = due.size();
    phase.backlogAtLastDue = r.backlogAtLastDue;
    run.maxInFlight = std::max(run.maxInFlight, r.maxInFlight);
    for (std::size_t i = 0; i < due.size(); ++i) {
      run.posts.push_back(r.posts[i]);
      run.status.push_back(r.status[i]);
      run.bodies.push_back(std::move(r.bodies[i]));
    }
    if (length > 0) {
      // Pass: >= 99% answered 200 within the limit, and no standing backlog
      // (one that holds more arrivals than the latency limit lets wait).
      std::size_t good = 0;
      for (const PostRecord& post : r.posts) {
        if (post.ok && (post.done - post.due) * 1e3 <= kZipfLatencyLimitMs) ++good;
      }
      phase.goodLinesPerSecond = static_cast<double>(good) / length;
      phase.passed = static_cast<double>(good) >= 0.99 * static_cast<double>(due.size()) &&
                     static_cast<double>(r.backlogAtLastDue) <=
                         phase.rate * kZipfLatencyLimitMs / 1e3;
    }
    run.phases.push_back(phase);
    if (phase.kind == Phase::Kind::kBurst && secondsSince(*burstStart) < seconds * kZipfBurstShare) {
      --p;  // another chunk of the burst
      continue;
    }
    if (phase.kind == Phase::Kind::kRung && !phase.passed) {
      // A rung gets a second attempt before it counts as failed, so one
      // stall does not cut the ladder short.
      if (retried) break;
      retried = true;
      --p;
      continue;
    }
    retried = false;
  }
  return run;
}

/// The burst's figures: per chunk, correctly answered lines per second and
/// the p50/p99 of POST latency from send to full response (in a closed loop
/// every POST is due at once, so the due time would only count the
/// generator's own queue); each reported as the median over chunks.
struct BurstFigures {
  double linesPerSecond = 0;
  Percentile p50;
  Percentile p99;
  std::size_t chunks = 0;
};

BurstFigures burstFigures(const ZipfRun& run) {
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  BurstFigures f;
  for (const Phase& phase : run.phases) {
    if (phase.kind != Phase::Kind::kBurst) continue;
    double start = kInf;
    double end = 0;
    std::size_t lines = 0;
    std::vector<double> latency;
    for (std::size_t i = phase.firstPost; i < phase.firstPost + phase.posts; ++i) {
      const PostRecord& post = run.posts[i];
      start = std::min(start, post.sent);
      if (std::isfinite(post.done)) end = std::max(end, post.done);
      if (post.ok) lines += run.keyEnd[i] - run.keyBegin(i);
      latency.push_back(post.ok ? post.done - post.sent : kInf);
    }
    rates.push_back(static_cast<double>(lines) / (end - start));
    f.p50 = percentile(latency, 0.50);
    f.p99 = percentile(latency, 0.99);
    p50s.push_back(f.p50.value);
    p99s.push_back(f.p99.value);
    ++f.chunks;
  }
  f.linesPerSecond = median(rates);
  f.p50.value = median(p50s);
  f.p99.value = median(p99s);
  return f;
}

/// Checks every answer line, marks POSTs with a wrong or missing line
/// failed, and counts failed lines.
void checkZipf(ZipfRun& run, Checker& checker, const std::vector<std::size_t>& refOfKey,
               Report& report, MemberTotals* members) {
  for (std::size_t i = 0; i < run.posts.size(); ++i) {
    PostRecord& post = run.posts[i];
    const std::size_t lines = run.keyEnd[i] - run.keyBegin(i);
    report.attempted += lines;
    if (run.status[i] != 200) {
      post.ok = false;
      report.failed += lines;
      continue;
    }
    std::string_view body = run.bodies[i];
    std::size_t answered = 0;
    for (std::size_t j = 0; j < lines && !body.empty(); ++j) {
      const std::size_t eol = std::min(body.find('\n'), body.size());
      const std::string_view line = body.substr(0, eol);
      body.remove_prefix(std::min(eol + 1, body.size()));
      const std::string diff = checker.check(line, refOfKey[run.keys[run.keyBegin(i) + j]]);
      if (!diff.empty()) {
        report.mismatch("POST " + std::to_string(i) + " line " + std::to_string(j + 1) + ": " + diff);
        continue;
      }
      ++answered;
      if (members != nullptr) members->add(parseJson(line));
    }
    if (answered != lines) {
      post.ok = false;
      report.failed += lines - answered;
    }
  }
}

std::pair<Percentile, Percentile> phaseLatency(const ZipfRun& run, const Phase& p) {
  const std::vector<double> l = latencies(run.posts, p.firstPost, p.firstPost + p.posts);
  return {blockPercentile(l, 0.50, kBlocks), blockPercentile(l, 0.99, kBlocks)};
}

/// Goodput: good answers per second at the highest rate that passed, with
/// every rate below it passing too (r1..r3, then the ladder).
double goodput(const ZipfRun& run) {
  double best = 0;
  for (std::size_t i = 0; i < run.phases.size(); ++i) {
    const Phase& p = run.phases[i];
    if (p.kind != Phase::Kind::kRate && p.kind != Phase::Kind::kRung) continue;
    const bool retriedNext = i + 1 < run.phases.size() && run.phases[i + 1].rate == p.rate;
    if (p.passed) {
      best = p.goodLinesPerSecond;
    } else if (!retriedNext) {
      break;
    }
  }
  return best;
}

Registry fetchStats(HttpClient& client) {
  const HttpClient::Response r = client.roundTrip(renderGet("/stats"));
  if (r.status != 200) throw std::runtime_error("GET /stats failed");
  return Registry{parseJson(r.body)};
}

/// Runs the phases against a fresh `serve --listen`; returns its peak RSS.
double serveZipf(const Options& o, const Corpus& keys, unsigned plan, ZipfRun& run) {
  const std::string portFile = o.work + "/zipf.port";
  std::remove(portFile.c_str());
  const auto started = Clock::now();
  Child server(serveListenArgs(o, portFile, false), Redirect{}, Redirect{},
               Redirect{o.work + "/zipf.err"}, true);
  HttpClient client(waitForPort(server, portFile, started), o.nproc);
  run = zipfPhases(client, keys, o.seed, o.seconds, plan);
  server.signal(SIGTERM);
  const Child::Exit e = server.wait();
  if (e.code != 0) {
    throw std::runtime_error("server did not drain cleanly (exit " + std::to_string(e.code) + ")");
  }
  return e.peakRssMb;
}

void runHttpZipf(const Options& o, Report& report) {
  double draws = kZipfWarmupPosts + kZipfBurstLines * 5000 * o.seconds;
  for (std::size_t i = 0; i < 3; ++i) draws += kZipfRates[i] * o.seconds * kZipfPhaseShare[i];
  for (const double r : kZipfLadder) draws += 2 * r * o.seconds * kZipfRungShare;
  const Corpus keys = zipfCorpus(o.seed, static_cast<std::size_t>(draws * 1.1));
  const double setup = setupListen(o);

  // The fixed rates and the goodput ladder run only in the traced run: on a
  // shared host the latency of a sub-millisecond answer at moderate load is
  // set by thread wake-ups, which slow several-fold while other tenants
  // contend, and a rung near capacity passes or fails by chance.
  ZipfRun run;
  const double rss = serveZipf(
      o, keys, o.trace ? kPlanRates | kPlanBurst | kPlanLadder : kPlanBurst, run);
  const std::size_t measured = run.keyBegin(run.phases[1].firstPost);  // first timed line
  reportProperties(report,
                   Corpus{keys.distinct, keys.isKind,
                          std::vector<std::uint32_t>(run.keys.begin() + measured, run.keys.end())},
                   run.keys.size() - measured);
  report.info("POST sizes: " + std::to_string(kZipfBurstLines) + " lines in the burst" +
              (o.trace ? ", 1 line at r1..r3 and on the ladder" : ""));

  // References for the keys that were sent, solved after the timed phases.
  std::vector<std::size_t> refOfKey(keys.distinct.size(), 0);
  std::vector<std::string> sent;
  for (const std::uint32_t k : std::set<std::uint32_t>(run.keys.begin(), run.keys.end())) {
    refOfKey[k] = sent.size();
    sent.push_back(keys.distinct[k]);
  }
  Checker checker(referenceOutcomes(sent, SolveSpec{false}, o.nproc));
  checkZipf(run, checker, refOfKey, report, nullptr);
  std::size_t fromCache = 0;
  for (std::size_t i = run.phases[1].firstPost; i < run.bodies.size(); ++i) {
    for (std::size_t at = run.bodies[i].find("\"from_cache\":true"); at != std::string::npos;
         at = run.bodies[i].find("\"from_cache\":true", at + 1)) {
      ++fromCache;
    }
  }
  report.info("answered from the result cache: " +
              std::to_string(static_cast<double>(fromCache) /
                             static_cast<double>(run.keys.size() - measured)));

  // Generator lateness over the open-loop phases that passed; a rung past
  // capacity saturates every core and says nothing about the generator.
  std::vector<double> late;
  for (const Phase& p : run.phases) {
    if (p.kind == Phase::Kind::kRate || (p.kind == Phase::Kind::kRung && p.passed)) {
      for (std::size_t i = p.firstPost; i < p.firstPost + p.posts; ++i) {
        late.push_back(run.posts[i].late() * 1e3);
      }
    }
  }
  const Percentile lateP99 = percentile(late, 0.99);
  if (lateP99.value > kLateLimitMs) {
    throw std::runtime_error("load generator ran late (p99 " + std::to_string(lateP99.value) +
                             " ms > " + std::to_string(kLateLimitMs) + " ms): run invalid");
  }
  if (!late.empty()) {
    report.info("load generator: late p50 " + std::to_string(percentile(late, 0.5).value) +
                " ms, p99 " + std::to_string(lateP99.value) + " ms, max in flight " +
                std::to_string(run.maxInFlight));
  }
  for (const Phase& p : run.phases) {
    if (p.kind != Phase::Kind::kRate && p.kind != Phase::Kind::kRung) continue;
    const auto [p50, p99] = phaseLatency(run, p);
    std::ostringstream line;
    line << "rate " << p.rate << "/s: posts=" << p.posts << " p50=" << p50.value * 1e3
         << "ms p99=" << p99.value * 1e3 << "ms (" << samples(p99)
         << " per slice) backlog=" << p.backlogAtLastDue << (p.passed ? " pass" : " FAIL");
    report.info(line.str());
  }

  const BurstFigures burst = burstFigures(run);
  const std::string chunks = "median of " + std::to_string(burst.chunks) +
                             " closed-loop chunks of " + std::to_string(kZipfBurstPosts) +
                             " POSTs x " + std::to_string(kZipfBurstLines) + " lines on " +
                             std::to_string(o.nproc) + " connections";
  report.e2e("setup_s", "s", setup, std::to_string(kSetupSpawns) + " spawns, median");
  report.e2e("lines_per_s", "lines/s", burst.linesPerSecond, chunks);
  report.e2e("peak_rss_mb", "MB", rss);
  report.e2e("latency_p50_ms", "ms", reportable(burst.p50, "latency_p50_ms"),
             samples(burst.p50) + " per chunk, send to full response, " + chunks);
  report.e2e("latency_p99_ms", "ms", reportable(burst.p99, "latency_p99_ms"),
             samples(burst.p99) + " per chunk");
  if (!o.trace) return;

  LayerInputs in;
  in.goodput = goodput(run);
  in.lateP99Ms = lateP99.value;
  in.maxInFlight = static_cast<double>(run.maxInFlight);
  for (std::size_t k = 0; k < 3; ++k) {
    in.rateLatency.push_back(phaseLatency(run, run.find(Phase::Kind::kRate, k)));
  }
  // Traced: a second server with tracing on, the fixed rates only.
  const std::string portFile = o.work + "/zipf.port";
  std::remove(portFile.c_str());
  {
    const auto started = Clock::now();
    Child server(serveListenArgs(o, portFile, true), Redirect{}, Redirect{},
                 Redirect{o.work + "/zipf.err"});
    const pipesched::net::Endpoint endpoint = waitForPort(server, portFile, started);
    HttpClient client(endpoint, o.nproc);
    ZipfRun traced = zipfPhases(client, keys, o.seed, o.seconds, kPlanRates);
    checkZipf(traced, checker, refOfKey, report, &in.members);
    in.traceOverheadShare = 1.0 - in.rateLatency[1].first.value /
                                      phaseLatency(traced, traced.find(Phase::Kind::kRate, 1)).first.value;

    in.registry = fetchStats(client);
    cacheFromSection(in, in.registry.root.find("cache"), in.registry.root.find("sub_cache"));
    in.solved = in.registry.section("scheduler", "solved");
    in.bytesWrittenPerLine =
        in.registry.counter("net.bytes_written") / static_cast<double>(traced.keys.size());

    HttpClient probe(endpoint, 1);
    for (int i = 0; i < 2000; ++i) {
      const auto t = Clock::now();
      if (probe.roundTrip(renderGet("/healthz")).status != 200) {
        throw std::runtime_error("GET /healthz failed");
      }
      in.healthzRtt.push_back(secondsSince(t));
    }
    // Admission probe: POSTs of hot keys, 10x the queue capacity, sent one
    // at a time to the now idle server.
    std::string bulk;
    for (std::size_t i = 0; i < kBulkLines; ++i) {
      bulk += keys.distinct[keys.sequence[i]];
      bulk += '\n';
    }
    const double completedBefore = fetchStats(probe).section("scheduler", "completed");
    double delivered = 0;
    for (std::size_t i = 0; i < kBulkPosts; ++i) {
      const HttpClient::Response r = probe.roundTrip(renderPost(bulk));
      if (r.status == 503) {
        in.shedPosts += 1;
      } else if (r.status == 200) {
        delivered += static_cast<double>(kBulkLines);
      } else {
        throw std::runtime_error("bulk POST answered " + std::to_string(r.status));
      }
    }
    ::usleep(200000);  // let solves of shed POSTs land in the counters
    const double completed = fetchStats(probe).section("scheduler", "completed") - completedBefore;
    in.wastedSolveRatio = completed > 0 ? std::max(0.0, completed - delivered) / completed : 0;
    report.info("admission probe: " + std::to_string(int(in.shedPosts)) + "/" +
                std::to_string(kBulkPosts) + " POSTs of " + std::to_string(kBulkLines) +
                " lines shed (503) by an idle server");
    server.signal(SIGTERM);
    const int code = server.wait().code;
    if (code != 0) {
      throw std::runtime_error("server did not drain cleanly (exit " + std::to_string(code) + ")");
    }
  }
  const Phase& r3 = run.find(Phase::Kind::kRate, 2);
  Corpus replayed{keys.distinct, keys.isKind,
                  std::vector<std::uint32_t>(run.keys.begin() + measured,
                                             run.keys.begin() + run.keyEnd[r3.firstPost + r3.posts - 1])};
  in.replay = replayLayers(replayed, SolveSpec{false});
  // serve --listen: the event loop parses bodies; workers fingerprint, look
  // up, solve and render the outcome line.
  const std::size_t workers = serverWorkers(o);
  in.stageThreads = {{"io.parse", 1},
                     {"service.fingerprint", workers},
                     {"service.cache.get", workers},
                     {"service.portfolio", workers},
                     {"service.cache.put", workers},
                     {"io.emit", workers}};
  reportLayers(report, in);
}

// ---------------------------------------------------------------------------

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--bin") {
      o.bin = value;
    } else if (key == "--work") {
      o.work = value;
    } else if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else {
      throw std::runtime_error("unknown option " + key);
    }
  }
  if (o.bin.empty() || o.work.empty() || o.workload.empty()) {
    throw std::runtime_error(
        "usage: perfbench_runner --bin PATH --work DIR --workload NAME [--seed N] "
        "[--seconds S] [--trace 0|1]");
  }
  o.nproc = std::max(1u, std::thread::hardware_concurrency());
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc > 1 && std::string(argv[1]) == "--exec-report") return runTrampoline(argc, argv);
  ::signal(SIGPIPE, SIG_IGN);
  try {
    const Options o = parseOptions(argc, argv);
    Report report;
    if (o.workload == "warm_stdio") {
      runWarmStdio(o, report);
    } else if (o.workload == "cold_batch") {
      runColdBatch(o, report);
    } else if (o.workload == "http_zipf") {
      runHttpZipf(o, report);
    } else {
      throw std::runtime_error("unknown workload " + o.workload);
    }
    report.print(o.trace);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
