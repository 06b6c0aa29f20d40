#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/relationship_server.h"

namespace perfbench {

/// `perfbench load`: the open-loop load generator of serve_read and
/// serve_churn (see loadgen.cc). Prints one JSON line.
int RunLoad(int argc, char** argv);

enum class Verb { kClassify, kTopK, kAddRel, kDelRel, kAddPoi, kDelPoi };

/// One scheduled request of the seeded stream.
struct Request {
  double due_s = 0.0;  // Seconds after the schedule starts.
  Verb verb = Verb::kClassify;
  int i = -1, j = -1;  // POI ids (CLASSIFY, TOPK, ADDREL, DELREL, DELPOI).
  int rel = -1;        // ADDREL relation id.
  double lon = 0.0, lat = 0.0;  // ADDPOI location.
  std::string line;    // Exact request text, without the newline.
  bool is_read() const { return verb == Verb::kClassify || verb == Verb::kTopK; }
};

struct StreamSpec {
  bool churn = false;
  double rate = 8000.0;        // Requests per second, reads and writes.
  double duration_s = 10.0;    // Schedule length, warm-up included.
  double mutation_share = 0.05;
  uint64_t seed = 1;
};

/// The seeded request stream: Poisson arrivals, Zipf(1.0) POI popularity
/// over a seeded permutation of the checkpoint's POIs, 75% CLASSIFY and
/// 25% TOPK <i> 2.0 10 reads, and for churn a mutation share of ADDREL and
/// DELREL on Zipf pairs, ADDPOI next to an existing POI and DELPOI of POIs
/// the stream itself added (never read, so no read can race a delete).
std::vector<Request> MakeStream(const StreamSpec& spec,
                                const prim::serve::RelationshipServer& ref);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
