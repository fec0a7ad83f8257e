// Self-test of the benchmark's measurement rules (harness.hpp) and output
// comparison (outcome_diff). Exits 0 when every check holds.
//
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "outcome_diff.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void percentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Percentile p99 = percentile(v, 0.99);
  expect(p99.value == 990 && p99.beyond == 10 && p99.supported(),
         "p99 of 1000 samples has 10 beyond");
  v.pop_back();
  expect(!percentile(v, 0.99).supported(), "p99 of 999 samples is not reportable");
  const Percentile p50 = percentile({3, 1, 2}, 0.5);
  expect(p50.value == 2 && p50.beyond == 1, "nearest-rank median");
  expect(percentile({}, 0.5).samples == 0, "empty sample");
}

void failuresSortLast() {
  std::vector<double> v(990, 0.001);
  v.insert(v.end(), 20, kInf);  // 2% failed
  expect(std::isinf(percentile(v, 0.99).value), "failures reach p99 as +infinity");
  expect(percentile(v, 0.5).value == 0.001, "failures do not move the median");
  PostRecord failed{0.5};
  failed.done = 0.6;
  expect(std::isinf(failed.latency()), "a failed POST's latency is +infinity");
}

void stalledResponseDelaysBacklog() {
  // One connection; POSTs due every millisecond; the first response stalls
  // until 10 ms, then each takes 1 ms.
  OpenLoopBook book({0.000, 0.001, 0.002, 0.003}, 1);
  auto sends = book.advance(0.000);
  expect(sends.size() == 1 && sends[0].second == 0, "first POST goes out at once");
  for (const double t : {0.001, 0.002, 0.003}) {
    expect(book.advance(t).empty(), "busy connection: arrivals wait in the backlog");
  }
  expect(book.backlog() == 3, "three POSTs queued behind the stall");
  double now = 0.010;
  book.complete(0, now, true);
  for (std::size_t k = 1; k < 4; ++k) {
    sends = book.advance(now);
    expect(sends.size() == 1 && sends[0].second == k, "backlog drains in order");
    now += 0.001;
    book.complete(0, now, true);
  }
  expect(book.finished(), "all answered");
  const auto& posts = book.posts();
  expect(near(posts[0].latency(), 0.010), "stalled POST: 10 ms");
  for (std::size_t k = 1; k < 4; ++k) {
    // Due at k ms, answered at (10 + k) ms: the stall is charged to it.
    expect(near(posts[k].latency(), 0.010), "queued POST charged from its due time");
    expect(near(posts[k].sent - posts[k].due, 0.009), "send waited for the connection");
    expect(near(posts[k].late(), 0), "generator itself was on time");
  }
  expect(book.maxInFlight() == 1, "one request per connection");
}

void pipelineFromSpans() {
  // Two requests. Request 0: parse 1, fingerprint 2, portfolio 6 of which a
  // child put covers 1 (self 5), emit 1. Request 1 (a hit): parse 1,
  // fingerprint 2, emit 1.
  std::vector<Span> spans = {
      {"request", 0, 10, -1, 0},           {"io.parse", 0, 1, 0, 0},
      {"service.fingerprint", 1, 3, 0, 0}, {"service.portfolio", 3, 9, 0, 0},
      {"service.cache.put", 8, 9, 3, 0},   {"io.emit", 9, 10, 0, 0},
      {"request", 20, 24, -1, 1},          {"io.parse", 20, 21, 6, 1},
      {"service.fingerprint", 21, 23, 6, 1}, {"io.emit", 23, 24, 6, 1},
  };
  // Seconds in the spans above; stage means come out in microseconds.
  for (Span& s : spans) {
    s.start *= 1e-6;
    s.end *= 1e-6;
  }
  const std::vector<double> self = selfTimes(spans);
  expect(near(self[3] * 1e6, 5), "self time excludes the child span");
  expect(near(self[0] * 1e6, 0), "root fully covered by its stages");
  const PipelineCriteria c = derivePipeline(
      spans,
      {{"io.parse", 1}, {"service.fingerprint", 4}, {"service.portfolio", 2},
       {"service.cache.put", 1}, {"io.emit", 1}},
      2);
  // Means per request: parse 1, fingerprint 2, portfolio 2.5, put 0.5, emit 1.
  expect(near(c.latencyUs, 7), "latency = sum of stage means");
  // Periods: parse 1/1, fingerprint 2/4, portfolio 2.5/2, put 0.5, emit 1.
  expect(near(c.periodUs, 1.25) && c.bottleneck == "service.portfolio",
         "period = largest mean over its threads");
  expect(near(c.bottleneckShare, 2.5 / 7), "bottleneck share of latency");
}

void cyclicIndexing() {
  // A schedule longer than its corpus wraps around instead of reading past it.
  const std::vector<int> corpus = {7, 8, 9};
  expect(cyclic(corpus, 0) == 7 && cyclic(corpus, 4) == 8 && cyclic(corpus, 3000) == 7,
         "cyclic index wraps");
  bool threw = false;
  try {
    (void)cyclic(std::vector<int>{}, 0);
  } catch (const std::out_of_range&) {
    threw = true;
  }
  expect(threw, "cyclic index into an empty corpus throws");
}

void outcomeComparison() {
  Mask mask{{"index", "line", "from_cache"}, {"reused"}};
  const Json want = pipesched::io::parseJson(
      R"({"name":"a","ok":true,"from_cache":false,"front":[{"period":1.5,"latency":2}],)"
      R"("solvers":[{"solver":"H1","points":3,"reused":0}]})");
  const Json same = pipesched::io::parseJson(
      R"({"index":7,"line":8,"name":"a","ok":true,"from_cache":true,)"
      R"("front":[{"period":1.5,"latency":2}],"solvers":[{"solver":"H1","points":3,"reused":5}]})");
  expect(diffOutcome(same, want, mask).empty(), "masked keys are ignored");
  const Json other = pipesched::io::parseJson(
      R"({"name":"a","ok":true,"from_cache":false,"front":[{"period":1.5000000000000002,)"
      R"("latency":2}],"solvers":[{"solver":"H1","points":3,"reused":0}]})");
  expect(!diffOutcome(other, want, mask).empty(), "a one-ulp front change is caught");
  const Json fewer = pipesched::io::parseJson(
      R"({"name":"a","ok":true,"from_cache":false,"front":[{"period":1.5,"latency":2}],)"
      R"("solvers":[{"solver":"H1","points":2,"reused":0}]})");
  expect(!diffOutcome(fewer, want, mask).empty(), "solver counts are compared");
}

}  // namespace

int main() {
  percentileRule();
  failuresSortLast();
  stalledResponseDelaysBacklog();
  pipelineFromSpans();
  cyclicIndexing();
  outcomeComparison();
  std::printf("%s (%d failure(s))\n", failures == 0 ? "selftest ok" : "selftest FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
