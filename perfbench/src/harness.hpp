// Measurement rules shared by the runner and its self-test: the percentile
// rule, open-loop due-time accounting, and the paper's two criteria (period,
// latency) derived from a set of spans. Header-only and free of any pipesched
// dependency, so the self-test checks exactly the code the runner uses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Samples a percentile needs beyond it before it may be reported.
inline constexpr std::size_t kTailSamples = 10;

/// One order statistic with the sample count behind it.
struct Percentile {
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly after the chosen rank
  /// True when at least kTailSamples samples lie beyond the rank — the only
  /// percentiles the benchmark reports.
  [[nodiscard]] bool supported() const noexcept { return beyond >= kTailSamples; }
};

/// Nearest-rank percentile: the sample of rank ceil(q*n) in ascending order.
/// Failures enter as +infinity and so sort after every success.
inline Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(samples.size()))));
  const std::size_t index = std::min(rank, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  p.value = samples[index];
  p.beyond = samples.size() - index - 1;
  return p;
}

/// Element `i` of `v` taken cyclically: a schedule longer than the corpus it
/// draws from wraps around instead of reading past the end.
template <class T>
const T& cyclic(const std::vector<T>& v, std::size_t i) {
  if (v.empty()) throw std::out_of_range("cyclic: empty sequence");
  return v[i % v.size()];
}

/// Median of a non-empty list (mean of the middle pair for even sizes).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A percentile taken separately over `blocks` consecutive equal slices of
/// the samples (in arrival order), reported as the median of the slices'
/// values: a stall that hits one slice moves one value, not the result.
/// `samples`/`beyond` describe the smallest slice, so supported() holds only
/// when every slice supports the percentile.
inline Percentile blockPercentile(const std::vector<double>& samples, double q,
                                  std::size_t blocks) {
  std::vector<double> values;
  Percentile worst;
  worst.beyond = static_cast<std::size_t>(-1);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = samples.size() * b / blocks;
    const std::size_t hi = samples.size() * (b + 1) / blocks;
    const Percentile p =
        percentile(std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(lo),
                                       samples.begin() + static_cast<std::ptrdiff_t>(hi)),
                   q);
    values.push_back(p.value);
    if (p.beyond < worst.beyond) worst = p;
  }
  worst.value = median(values);
  return worst;
}

// ---------------------------------------------------------------------------
// Open-loop due-time accounting.
//
// Every POST has a due time from the arrival schedule. The generator notices
// it (lateness = noticed - due measures the generator itself), queues it in a
// FIFO backlog, and sends it on the first idle keep-alive connection. Its
// latency runs from the due time to the full response, so a stalled response
// delays every POST queued behind it and that wait is charged to them.
// ---------------------------------------------------------------------------

struct PostRecord {
  double due = 0;
  double noticed = kInf;
  double sent = kInf;
  double done = kInf;
  bool ok = false;  ///< answered 200 and correct; false sorts as +infinity

  [[nodiscard]] double latency() const noexcept { return ok ? done - due : kInf; }
  [[nodiscard]] double late() const noexcept { return noticed - due; }
};

class OpenLoopBook {
 public:
  OpenLoopBook(std::vector<double> dueTimes, std::size_t connections)
      : busy_(connections, kIdle) {
    posts_.reserve(dueTimes.size());
    for (const double due : dueTimes) posts_.push_back(PostRecord{due});
  }

  /// Notices every POST due by `now`, then hands backlog heads to idle
  /// connections. Returns the (connection, post) pairs to put on the wire.
  std::vector<std::pair<std::size_t, std::size_t>> advance(double now) {
    while (next_ < posts_.size() && posts_[next_].due <= now) {
      posts_[next_].noticed = now;
      backlog_.push_back(next_++);
    }
    std::vector<std::pair<std::size_t, std::size_t>> sends;
    for (std::size_t c = 0; c < busy_.size() && !backlog_.empty(); ++c) {
      if (busy_[c] != kIdle) continue;
      const std::size_t post = backlog_.front();
      backlog_.pop_front();
      busy_[c] = post;
      posts_[post].sent = now;
      ++inFlight_;
      maxInFlight_ = std::max(maxInFlight_, inFlight_);
      sends.emplace_back(c, post);
    }
    return sends;
  }

  /// The response on `connection` finished at `now`.
  void complete(std::size_t connection, double now, bool ok) {
    PostRecord& post = posts_[busy_[connection]];
    post.done = now;
    post.ok = ok;
    busy_[connection] = kIdle;
    --inFlight_;
  }

  [[nodiscard]] double nextDue() const noexcept {
    return next_ < posts_.size() ? posts_[next_].due : kInf;
  }
  [[nodiscard]] bool finished() const noexcept {
    return next_ == posts_.size() && backlog_.empty() && inFlight_ == 0;
  }
  [[nodiscard]] std::size_t backlog() const noexcept { return backlog_.size(); }
  [[nodiscard]] std::size_t maxInFlight() const noexcept { return maxInFlight_; }
  [[nodiscard]] std::size_t postOn(std::size_t connection) const { return busy_[connection]; }
  [[nodiscard]] const std::vector<PostRecord>& posts() const noexcept { return posts_; }

 private:
  static constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
  std::vector<PostRecord> posts_;
  std::vector<std::size_t> busy_;  ///< post on each connection, or kIdle
  std::deque<std::size_t> backlog_;
  std::size_t next_ = 0;
  std::size_t inFlight_ = 0;
  std::size_t maxInFlight_ = 0;
};

/// Latency samples (seconds, +infinity for failures) of posts[first, last).
inline std::vector<double> latencies(const std::vector<PostRecord>& posts, std::size_t first,
                                     std::size_t last) {
  std::vector<double> out;
  out.reserve(last - first);
  for (std::size_t i = first; i < last; ++i) out.push_back(posts[i].latency());
  return out;
}

// ---------------------------------------------------------------------------
// Spans and the paper's criteria.
// ---------------------------------------------------------------------------

/// One timed call. `parent` indexes the enclosing span (-1 for a root);
/// spans of one request share `request`.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Per-span self time: the span's duration minus the part of its interval
/// that its children cover (children clipped to the parent, overlaps merged).
inline std::vector<double> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& cover = children[i];
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    double runLo = 0;
    double runHi = -kInf;
    for (const auto& [lo, hi] : cover) {
      if (lo > runHi) {
        if (runHi > runLo) covered += runHi - runLo;
        runLo = lo;
        runHi = hi;
      } else {
        runHi = std::max(runHi, hi);
      }
    }
    if (runHi > runLo) covered += runHi - runLo;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

/// Period and latency of a request pipeline, in the paper's sense.
struct PipelineCriteria {
  double periodUs = 0;   ///< largest (stage mean / threads serving the stage)
  double latencyUs = 0;  ///< sum of stage means
  double bottleneckShare = 0;  ///< bottleneck stage mean / latency
  std::string bottleneck;
  std::map<std::string, double> stageMeanUs;  ///< self time per request
};

/// Stage means are total self time per stage divided by `requests` (the
/// work each request puts on the stage, hits and misses averaged). A stage
/// served by k threads is a replicated interval: its period is mean / k.
inline PipelineCriteria derivePipeline(const std::vector<Span>& spans,
                                       const std::map<std::string, std::size_t>& threads,
                                       std::size_t requests) {
  PipelineCriteria c;
  if (requests == 0) return c;
  const std::vector<double> self = selfTimes(spans);
  for (const auto& [stage, count] : threads) c.stageMeanUs[stage] = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = c.stageMeanUs.find(spans[i].name);
    if (it != c.stageMeanUs.end()) it->second += self[i];
  }
  double bottleneckMean = 0;
  for (auto& [stage, total] : c.stageMeanUs) {
    total = total * 1e6 / static_cast<double>(requests);
    c.latencyUs += total;
    const double period = total / static_cast<double>(std::max<std::size_t>(1, threads.at(stage)));
    if (period > c.periodUs) {
      c.periodUs = period;
      c.bottleneck = stage;
      bottleneckMean = total;
    }
  }
  c.bottleneckShare = c.latencyUs > 0 ? bottleneckMean / c.latencyUs : 0;
  return c;
}

}  // namespace perfbench
