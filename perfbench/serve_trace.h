#ifndef PERFBENCH_SERVE_TRACE_H_
#define PERFBENCH_SERVE_TRACE_H_

#include <string>
#include <utility>
#include <vector>

#include "loadgen.h"
#include "util.h"

namespace perfbench {

/// Loads a checkpoint with the options run.py gives prim_serve (--cache
/// 4096, and the default compaction unless told otherwise). Exits the
/// process on failure.
std::unique_ptr<prim::serve::RelationshipServer> LoadReference(
    const std::string& checkpoint,
    uint64_t compact_every = prim::serve::RelationshipServer::Options{}.compact_every);

/// Re-runs each (request, response) pair through an in-process
/// HandleRequestLine on a fresh server and returns the number of responses
/// that differ byte for byte.
int CountMismatches(const std::string& checkpoint,
                    const std::vector<std::pair<std::string, std::string>>& sample);

/// Traced in-process replay of the stream through the program's public
/// serving calls; adds serve.handle_*, serve.apply_us, serve.compact_ms,
/// geo.*, io.load_ms and trace.* fields to `out`. Returns the median
/// in-process handler time of reads, in microseconds.
double TraceInProcess(const std::string& checkpoint,
                      const std::vector<Request>& stream, JsonOut* out);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_TRACE_H_
