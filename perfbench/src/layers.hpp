// Everything the benchmark calls inside the pipesched library, in one place:
// input generation helpers, the serial uncached reference solve, and the
// traced replay that times each layer's public functions. The timed runs
// use only the pipesched binary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "outcome_diff.hpp"

namespace perfbench {

/// splitmix64: small, portable, seedable. Each (seed, stream) pair starts
/// from a scrambled state, so neighbouring seeds do not share a sequence.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream) : state_(mix(seed ^ mix(stream))) {}
  std::uint64_t next() { return mix(state_ += 0x9E3779B97F4A7C15ull); }
  /// Uniform integer in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) { return lo + next() % (hi - lo + 1); }
  /// Uniform real in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t state_;
};

/// Distinct request lines plus the order the workload sends them in.
struct Corpus {
  std::vector<std::string> distinct;
  std::vector<bool> isKind;  ///< per distinct line: {"kind":...} vs {"text":...}
  std::vector<std::uint32_t> sequence;
};

/// One random request line: a {"kind":...} line, or a {"text":...} line
/// carrying a generated instance inline. Sizes are drawn from the ranges.
[[nodiscard]] std::string requestLine(Rng& rng, bool kind, std::size_t stagesLo,
                                      std::size_t stagesHi, std::size_t procsLo,
                                      std::size_t procsHi);

/// Portfolio members a workload runs: "default" or "all".
struct SolveSpec {
  bool allMembers = false;
};

/// Serial, uncached reference answers, one per distinct line: each line is
/// parsed and solved by a fresh single-threaded service with the result
/// cache off, then rendered as an outcome object. Lines are spread over
/// `threads` independent solvers.
[[nodiscard]] std::vector<Json> referenceOutcomes(const std::vector<std::string>& lines,
                                                  const SolveSpec& spec, std::size_t threads);

/// Catalog ids of every portfolio member, and the solver name each reports.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> memberCatalog();

/// Layer timings from replaying input lines in-process, in the order the
/// binary calls them: JsonlSource::next, requestIdentity, ResultCache get,
/// runPortfolio and put on a miss, writeOutcomeFields.
struct ReplayResult {
  std::vector<Span> spans;
  std::size_t requests = 0;
  std::size_t emitBytes = 0;
};
[[nodiscard]] ReplayResult replayLayers(const Corpus& corpus, const SolveSpec& spec);

}  // namespace perfbench
