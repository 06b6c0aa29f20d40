// In-process side of the serving workloads: the byte-equality reference
// and the traced replay. Spans sit around the program's public serving
// calls (RelationshipServer::Load, HandleRequestLine, ApplyMutations,
// Compact, GridIndex::RadiusQuery), from the benchmark's own code.
#include "serve_trace.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "serve/protocol.h"

namespace perfbench {

using prim::serve::RelationshipServer;

namespace {

constexpr size_t kCache = 4096;  // prim_serve --cache in run.py.
const uint64_t kCompactEvery = RelationshipServer::Options{}.compact_every;

}  // namespace

std::unique_ptr<RelationshipServer> LoadReference(const std::string& checkpoint,
                                                  uint64_t compact_every) {
  RelationshipServer::Options options;
  options.cache_capacity = kCache;
  options.compact_every = compact_every;
  std::unique_ptr<RelationshipServer> server;
  if (prim::io::Result r = RelationshipServer::Load(checkpoint, options, &server);
      !r) {
    std::fprintf(stderr, "perfbench: cannot load '%s': %s\n",
                 checkpoint.c_str(), r.error.c_str());
    std::exit(1);
  }
  return server;
}

namespace {

double Us(Clock::time_point t0) { return SecondsSince(t0) * 1e6; }

RelationshipServer::Mutation ToMutation(const Request& r) {
  using Kind = RelationshipServer::Mutation::Kind;
  RelationshipServer::Mutation m;
  m.i = r.i;
  m.j = r.j;
  switch (r.verb) {
    case Verb::kAddRel:
      m.kind = Kind::kAddRel;
      m.rel_token = std::to_string(r.rel);
      break;
    case Verb::kDelRel:
      m.kind = Kind::kDelRel;
      break;
    case Verb::kDelPoi:
      m.kind = Kind::kDelPoi;
      break;
    default:
      m.kind = Kind::kAddPoi;
      m.location = {r.lon, r.lat};
      break;
  }
  return m;
}

}  // namespace

int CountMismatches(
    const std::string& checkpoint,
    const std::vector<std::pair<std::string, std::string>>& sample) {
  auto server = LoadReference(checkpoint);
  int mismatches = 0;
  for (const auto& [line, response] : sample) {
    const std::string expected = prim::serve::HandleRequestLine(*server, line);
    if (expected != response) {
      if (mismatches < 3)
        std::fprintf(stderr, "perfbench: '%s' answered '%s', in-process '%s'\n",
                     line.c_str(), response.c_str(), expected.c_str());
      ++mismatches;
    }
  }
  return mismatches;
}

double TraceInProcess(const std::string& checkpoint,
                      const std::vector<Request>& stream, JsonOut* out) {
  std::vector<double> load_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    auto server = LoadReference(checkpoint);
    load_ms.push_back(SecondsSince(t0) * 1e3);
  }
  out->Num("io.load_ms", Median(load_ms));

  // Untimed replays: the baseline for the tracing overhead. One runs before
  // and one after the traced replay, so neither side gets the warmer caches.
  auto untimed_replay = [&] {
    auto server = LoadReference(checkpoint);
    const auto t0 = Clock::now();
    for (const Request& r : stream) prim::serve::HandleRequestLine(*server, r.line);
    return SecondsSince(t0);
  };
  double untimed_s = untimed_replay();

  // Handler path, one span per request.
  std::vector<double> classify_us, topk_us, mutation_us, read_us;
  double spans_s = 0.0, traced_s = 0.0;
  {
    auto server = LoadReference(checkpoint);
    const auto t_all = Clock::now();
    for (const Request& r : stream) {
      const auto t0 = Clock::now();
      prim::serve::HandleRequestLine(*server, r.line);
      const double us = Us(t0);
      spans_s += us * 1e-6;
      if (r.verb == Verb::kClassify) classify_us.push_back(us);
      else if (r.verb == Verb::kTopK) topk_us.push_back(us);
      else mutation_us.push_back(us);
      if (r.is_read()) read_us.push_back(us);
    }
    traced_s = SecondsSince(t_all);
  }
  untimed_s = 0.5 * (untimed_s + untimed_replay());
  out->Num("serve.handle_classify_us", Median(classify_us));
  out->Num("serve.handle_topk_us", Median(topk_us));
  out->Num("serve.handle_mutation_us", Median(mutation_us));
  out->Num("trace.overhead_ratio", untimed_s > 0 ? traced_s / untimed_s : 0.0);
  out->Num("trace.coverage", traced_s > 0 ? spans_s / traced_s : 0.0);

  // Mutation internals: ApplyMutations per batch (one mutation per batch,
  // as the single writer connection sends them) and Compact at the
  // server's default cadence, timed apart by turning auto-compaction off.
  std::vector<double> apply_us, compact_ms;
  if (!mutation_us.empty()) {
    auto server = LoadReference(checkpoint, /*compact_every=*/0);
    uint64_t applied = 0;
    for (const Request& r : stream) {
      if (r.is_read()) {
        prim::serve::HandleRequestLine(*server, r.line);
        continue;
      }
      const RelationshipServer::Mutation m = ToMutation(r);
      std::vector<std::string> responses;
      const auto t0 = Clock::now();
      server->ApplyMutations({m}, &responses);
      apply_us.push_back(Us(t0));
      if (kCompactEvery > 0 && ++applied % kCompactEvery == 0) {
        const auto t1 = Clock::now();
        server->Compact();
        compact_ms.push_back(SecondsSince(t1) * 1e3);
      }
    }
  }
  out->Num("serve.apply_us", Median(apply_us));
  out->Num("serve.compact_ms", Median(compact_ms));

  // Candidate search of every TOPK centre on the checkpoint's grid.
  std::vector<double> query_us, candidates;
  {
    auto server = LoadReference(checkpoint);
    const auto snap = server->Pin();
    for (const Request& r : stream) {
      if (r.verb != Verb::kTopK) continue;
      const auto t0 = Clock::now();
      const std::vector<int> ids = snap->grid->RadiusQuery(snap->PointOf(r.i), 2.0, r.i);
      query_us.push_back(Us(t0));
      candidates.push_back(static_cast<double>(ids.size()));
    }
  }
  out->Num("geo.radius_query_us", Median(query_us));
  out->Num("geo.candidates_per_topk", Median(candidates));
  return Median(read_us);
}

}  // namespace perfbench
