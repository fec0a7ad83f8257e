#include "layers.hpp"

#include <atomic>
#include <sstream>
#include <thread>

#include "pipesched/core/evaluation.hpp"
#include "pipesched/io/format.hpp"
#include "pipesched/io/json.hpp"
#include "pipesched/io/json_reader.hpp"
#include "pipesched/service/fingerprint.hpp"
#include "pipesched/service/portfolio.hpp"
#include "pipesched/service/result_cache.hpp"
#include "pipesched/service/service.hpp"
#include "pipesched/stream/sink.hpp"
#include "pipesched/stream/source.hpp"
#include "pipesched/workload/generator.hpp"
#include "process.hpp"

namespace perfbench {

namespace ps = pipesched;

namespace {

const char* const kKinds[] = {"E1", "E2", "E3", "E4"};

ps::service::ServiceConfig serviceConfig(const SolveSpec& spec) {
  ps::service::ServiceConfig config;
  config.threads = 0;
  config.cacheCapacity = 0;
  if (spec.allMembers) config.portfolio.members = ps::service::allPortfolioMembers();
  return config;
}

/// {<writeOutcomeFields>} — the outcome object every output shape embeds.
std::string renderOutcome(const std::string& name, const ps::service::RequestOutcome& outcome) {
  std::ostringstream out;
  {
    ps::io::JsonWriter w(out, /*pretty=*/false);
    w.beginObject();
    ps::stream::writeOutcomeFields(w, name, outcome);
    w.endObject();
  }
  return std::move(out).str();
}

ps::service::Request parseOne(const std::string& line) {
  std::istringstream in(line);
  ps::stream::JsonlSource source(in);
  std::optional<ps::service::Request> request = source.next();
  if (!request) throw std::runtime_error("reference: line did not parse: " + line.substr(0, 80));
  return std::move(*request);
}

}  // namespace

std::string requestLine(Rng& rng, bool kind, std::size_t stagesLo, std::size_t stagesHi,
                        std::size_t procsLo, std::size_t procsHi) {
  const char* kindName = kKinds[rng.range(0, 3)];
  const std::size_t stages = rng.range(stagesLo, stagesHi);
  const std::size_t procs = rng.range(procsLo, procsHi);
  const std::uint64_t seed = rng.range(1, 1u << 30);
  if (kind) {
    return std::string("{\"kind\":\"") + kindName + "\",\"stages\":" + std::to_string(stages) +
           ",\"processors\":" + std::to_string(procs) + ",\"seed\":" + std::to_string(seed) + "}";
  }
  ps::workload::Rng instanceRng(seed);
  ps::workload::InstancePair pair = ps::workload::randomInstance(
      *ps::workload::experimentKindFromName(kindName), stages, procs, instanceRng);
  ps::io::Instance instance{std::move(pair.pipeline), std::move(pair.platform),
                            std::string(kindName) + "-text-" + std::to_string(seed)};
  std::ostringstream text;
  ps::io::writeInstance(text, instance);
  std::ostringstream line;
  {
    ps::io::JsonWriter w(line, /*pretty=*/false);
    w.beginObject();
    w.kv("text", text.str());
    w.endObject();
  }
  return std::move(line).str();
}

std::vector<Json> referenceOutcomes(const std::vector<std::string>& lines,
                                    const SolveSpec& spec, std::size_t threads) {
  std::vector<Json> out(lines.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::string> errors(threads);
  const auto work = [&](std::size_t t) {
    try {
      for (std::size_t i = next++; i < lines.size(); i = next++) {
        const ps::service::Request request = parseOne(lines[i]);
        ps::service::SchedulingService service(serviceConfig(spec));
        out[i] = ps::io::parseJson(renderOutcome(request.name, service.solve(request)));
      }
    } catch (const std::exception& e) {
      errors[t] = e.what();
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(work, t);
  for (std::thread& th : pool) th.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> memberCatalog() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const ps::service::PortfolioMemberInfo& m : ps::service::portfolioMemberCatalog()) {
    out.emplace_back(m.id, m.solver);
  }
  return out;
}

ReplayResult replayLayers(const Corpus& corpus, const SolveSpec& spec) {
  const std::size_t lines = corpus.sequence.size();
  std::string input;
  for (std::size_t i = 0; i < lines; ++i) {
    input += corpus.distinct[corpus.sequence[i]];
    input += '\n';
  }
  std::istringstream in(input);
  ps::stream::JsonlSource source(in);
  const ps::service::ServiceConfig config = [&] {
    ps::service::ServiceConfig c = serviceConfig(spec);
    c.cacheCapacity = 1024;  // the binary's default result cache
    return c;
  }();
  ps::service::ResultCache cache(config.cacheCapacity, config.cacheShards);
  ps::service::SubResultCache subCache(config.subCacheCapacity, config.subCacheShards);

  ReplayResult r;
  r.spans.reserve(lines * 7);
  const auto origin = Clock::now();
  const auto now = [origin] { return secondsSince(origin); };
  // Opens a span and returns its index; close() stamps the end.
  const auto open = [&](const char* name, std::int64_t parent, std::uint64_t request) {
    r.spans.push_back(Span{name, now(), 0, parent, request});
    return static_cast<std::int64_t>(r.spans.size() - 1);
  };
  const auto close = [&](std::int64_t span) {
    r.spans[static_cast<std::size_t>(span)].end = now();
  };

  for (std::uint64_t id = 0; id < lines; ++id) {
    const std::int64_t root = open("request", -1, id);

    std::int64_t s = open("io.parse", root, id);
    std::optional<ps::service::Request> request = source.next();
    close(s);
    if (!request) throw std::runtime_error("replay: input ended early");

    const std::uint32_t key = corpus.sequence[id];
    if (corpus.isKind[key]) {
      // JsonlSource::next generated this instance; time the generator on
      // its own as a separate root span (not a pipeline stage, or the work
      // would count twice).
      const Json line = ps::io::parseJson(corpus.distinct[key]);
      const std::int64_t g = open("workload.generate", -1, id);
      ps::workload::Rng rng(static_cast<std::uint64_t>(num(line, "seed")));
      const ps::workload::InstancePair pair = ps::workload::randomInstance(
          *ps::workload::experimentKindFromName(line.find("kind")->text),
          static_cast<std::size_t>(num(line, "stages")),
          static_cast<std::size_t>(num(line, "processors")), rng);
      close(g);
      (void)pair;
    }

    s = open("service.fingerprint", root, id);
    const ps::service::RequestIdentity identity = ps::service::requestIdentity(*request);
    close(s);

    ps::service::RequestOutcome outcome;
    outcome.fingerprint = identity.fp;
    s = open("service.cache.get", root, id);
    std::optional<ps::service::PortfolioResult> hit = cache.get(identity.fp, identity.key);
    close(s);
    if (hit) {
      outcome.ok = true;
      outcome.fromCache = true;
      outcome.result = std::move(*hit);
    } else {
      s = open("service.portfolio", root, id);
      const ps::core::Evaluator eval(request->pipeline, request->platform, request->model);
      const ps::service::SubShare share(&subCache, ps::service::instanceFingerprint(*request));
      outcome.result = ps::service::runPortfolio(eval, request->sweep, config.portfolio, nullptr,
                                                 &share, request->deadline);
      outcome.ok = true;
      close(s);
      s = open("service.cache.put", root, id);
      cache.put(identity.fp, identity.key, outcome.result);
      close(s);
    }

    s = open("io.emit", root, id);
    std::ostringstream line;
    {
      ps::io::JsonWriter w(line, /*pretty=*/false);
      w.beginObject();
      w.kv("index", static_cast<std::size_t>(id));
      w.kv("line", static_cast<std::size_t>(id + 1));
      ps::stream::writeOutcomeFields(w, request->name, outcome);
      w.endObject();
    }
    const std::string emitted = std::move(line).str();
    close(s);
    r.emitBytes += emitted.size() + 1;
    close(root);
    ++r.requests;
  }
  return r;
}

}  // namespace perfbench
