// Open-loop load generator for serve_read and serve_churn.
//
// One busy-polling thread sends a seeded Poisson schedule over a fixed set
// of connections to a prim_serve child and times every request from its
// due time, not its send time, so a stall is charged to every request it
// delays. Reads go round-robin over the reader connections; mutations go
// in order over their own writer connection, like an ingest feed, and each
// acknowledged ADDREL/DELREL is read back by a CLASSIFY on that connection.
// CPU time and context switches of the server come from /proc/<pid>.
#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>

#include "common/rng.h"
#include "serve_trace.h"
#include "util.h"

namespace perfbench {

using prim::serve::RelationshipServer;

std::vector<Request> MakeStream(const StreamSpec& spec,
                                const RelationshipServer& ref) {
  const auto snap = ref.Pin();
  const int n = snap->num_pois();
  const int num_relations = ref.num_relations();
  prim::Rng rng(spec.seed * 0x2545F4914F6CDD1DULL + 17);
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(perm);
  std::vector<double> cdf(static_cast<size_t>(n));
  double total = 0.0;
  for (int r = 0; r < n; ++r) cdf[static_cast<size_t>(r)] = total += 1.0 / (r + 1);
  auto zipf = [&] {
    const double u = rng.Uniform(0.0, total);
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return perm[std::min(rank, perm.size() - 1)];
  };
  auto pair = [&](Request& r) {
    r.i = zipf();
    do r.j = zipf(); while (r.j == r.i);
  };

  std::vector<Request> out;
  int added = 0, deleted = 0;
  char buf[96];
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.Uniform()) / spec.rate;
    if (t >= spec.duration_s) break;
    Request r;
    r.due_s = t;
    if (spec.churn && rng.Uniform() < spec.mutation_share) {
      const double x = rng.Uniform();
      if (x < 0.45) {
        r.verb = Verb::kAddRel;
        pair(r);
        r.rel = static_cast<int>(rng.UniformInt(num_relations));
        std::snprintf(buf, sizeof(buf), "ADDREL %d %d %d", r.i, r.j, r.rel);
      } else if (x < 0.90) {
        r.verb = Verb::kDelRel;
        pair(r);
        std::snprintf(buf, sizeof(buf), "DELREL %d %d", r.i, r.j);
      } else if (x < 0.96 || deleted == added) {
        r.verb = Verb::kAddPoi;
        r.i = n + added++;
        const prim::geo::GeoPoint& p = snap->PointOf(zipf());
        r.lon = p.lon + rng.Uniform(-0.002, 0.002);
        r.lat = p.lat + rng.Uniform(-0.002, 0.002);
        std::snprintf(buf, sizeof(buf), "ADDPOI %.6f %.6f", r.lon, r.lat);
        // The server parses what it is sent; replay the same rounding.
        r.lon = std::strtod(buf + 7, nullptr);
        r.lat = std::strtod(std::strchr(buf + 7, ' ') + 1, nullptr);
      } else {
        r.verb = Verb::kDelPoi;
        r.i = n + deleted++;
        std::snprintf(buf, sizeof(buf), "DELPOI %d", r.i);
      }
    } else if (rng.Uniform() < 0.75) {
      r.verb = Verb::kClassify;
      pair(r);
      std::snprintf(buf, sizeof(buf), "CLASSIFY %d %d", r.i, r.j);
    } else {
      r.verb = Verb::kTopK;
      r.i = zipf();
      std::snprintf(buf, sizeof(buf), "TOPK %d 2.0 10", r.i);
    }
    r.line = buf;
    out.push_back(std::move(r));
  }
  return out;
}

namespace {

constexpr int kSampleEvery = 29;  // Share of reads checked byte for byte.

enum class Status { kOk, kBusy, kDeadline, kErr };

struct InFlight {
  long index = -1;       // Stream index, or -1 for a read-back.
  std::string expect;    // Read-back: expected relation name.
  double due_s = 0.0;
  bool measured = false;
};

struct Conn {
  int fd = -1;
  bool dead = false;
  std::string out;
  std::string in;
  std::deque<InFlight> inflight;
};

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

uint64_t PairKey(int a, int b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | static_cast<uint32_t>(b);
}

// Blocking request/response on a fresh connection (STATS after the run).
std::string AskOnce(int port, const std::string& line) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  const std::string msg = line + "\n";
  ::send(fd, msg.data(), msg.size(), MSG_NOSIGNAL);
  std::string in;
  char buf[4096];
  while (in.find('\n') == std::string::npos) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    in.append(buf, static_cast<size_t>(got));
  }
  ::close(fd);
  return in.substr(0, in.find('\n'));
}

double StatsField(const std::string& stats, const std::string& key) {
  std::istringstream in(stats);
  std::string tok;
  while (in >> tok) {
    if (tok.rfind(key + "=", 0) == 0)
      return std::strtod(tok.c_str() + key.size() + 1, nullptr);
  }
  return 0.0;
}

}  // namespace

// Flags: --port, --pid (the server), --workload read|churn, --rate,
// --seconds (measured, after 1 s of warm-up), --seed, --checkpoint,
// --trace 0|1.
int RunLoad(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int port = static_cast<int>(flags.Int("port", 0));
  const int pid = static_cast<int>(flags.Int("pid", 0));
  const std::string workload = flags.Str("workload", "read");
  const std::string checkpoint = flags.Str("checkpoint", "");
  const double warmup = 1.0;  // Seconds of schedule that fill the TopK cache.
  const bool trace = flags.Int("trace", 0) != 0;
  if (port <= 0 || pid <= 0 || checkpoint.empty() ||
      (workload != "read" && workload != "churn")) {
    std::fprintf(stderr,
                 "perfbench load: needs --port, --pid, --checkpoint and "
                 "--workload read|churn\n");
    return 2;
  }
  StreamSpec spec;
  spec.churn = workload == "churn";
  spec.rate = flags.Num("rate", 8000.0);
  spec.duration_s = warmup + flags.Num("seconds", 10.0);
  spec.seed = static_cast<uint64_t>(flags.Int("seed", 1));
  auto ref = LoadReference(checkpoint);
  const std::vector<Request> stream = MakeStream(spec, *ref);
  std::vector<std::string> names;
  for (int r = 0; r <= ref->num_relations(); ++r) names.push_back(ref->RelationName(r));
  ref.reset();

  const int total_conns = 4;
  const int readers = spec.churn ? total_conns - 1 : total_conns;
  std::vector<Conn> conns(total_conns);
  for (Conn& c : conns) {
    c.fd = Connect(port);
    if (c.fd < 0) {
      std::fprintf(stderr, "perfbench load: cannot connect to port %d\n", port);
      return 1;
    }
  }
  Conn& writer = conns.back();

  std::vector<double> read_ms, mut_ms, late_ms;
  std::vector<std::pair<std::string, std::string>> sample;
  std::map<uint64_t, std::string> declared;  // Pair -> last sent relation.
  long attempted = 0, ok = 0, busy = 0, deadline = 0, err = 0, transport = 0;
  long answered = 0, readbacks = 0, readback_mismatch = 0;
  ProcCounters cpu0, cpu1;
  bool cpu_started = false;

  // A request still unanswered here failed; it, and every refused request,
  // is charged this latency so it misses every limit.
  const double drain_limit = spec.duration_s + 5.0;
  PauseMeter pauses;
  const auto t_start = Clock::now();
  auto now_s = [&] { return SecondsSince(t_start); };
  auto send_line = [&](Conn& c, const std::string& line, InFlight f) {
    if (f.measured) ++attempted;
    if (c.dead) {
      if (f.measured) ++transport;
      return;
    }
    c.out += line;
    c.out += '\n';
    c.inflight.push_back(std::move(f));
  };
  auto flush = [&](Conn& c) {
    while (!c.dead && !c.out.empty()) {
      const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.out.erase(0, static_cast<size_t>(n));
      } else {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        c.dead = true;
      }
    }
  };
  auto on_response = [&](Conn& c, const std::string& line, double t) {
    InFlight f = std::move(c.inflight.front());
    c.inflight.pop_front();
    Status st = Status::kOk;
    if (line.rfind("OK", 0) == 0) st = Status::kOk;
    else if (line == "ERR busy") st = Status::kBusy;
    else if (line.rfind("ERR deadline", 0) == 0) st = Status::kDeadline;
    else st = Status::kErr;
    if (f.measured) {
      ++answered;
      ok += st == Status::kOk;
      busy += st == Status::kBusy;
      deadline += st == Status::kDeadline;
      err += st == Status::kErr;
    }
    if (st == Status::kErr)
      std::fprintf(stderr, "perfbench load: error response '%s'\n", line.c_str());
    if (f.index < 0) {  // Read-back of an acknowledged mutation.
      ++readbacks;
      if (line.rfind("OK " + f.expect + " ", 0) != 0) {
        if (readback_mismatch++ < 3)
          std::fprintf(stderr, "perfbench load: read-back expected '%s', got '%s'\n",
                       f.expect.c_str(), line.c_str());
      }
      return;
    }
    const size_t idx = static_cast<size_t>(f.index);
    const Request& r = stream[idx];
    const double ms = st == Status::kOk ? (t - f.due_s) * 1e3 : drain_limit * 1e3;
    if (f.measured) (r.is_read() ? read_ms : mut_ms).push_back(ms);
    // ADDPOI ids are dense and in send order on the one writer connection.
    if (r.verb == Verb::kAddPoi && st == Status::kOk &&
        line != "OK id=" + std::to_string(r.i)) {
      ++readback_mismatch;
      std::fprintf(stderr, "perfbench load: ADDPOI expected id %d, got '%s'\n",
                   r.i, line.c_str());
    }
    if (!spec.churn && st == Status::kOk && idx % kSampleEvery == 0)
      sample.emplace_back(r.line, line);
    if (st == Status::kOk && (r.verb == Verb::kAddRel || r.verb == Verb::kDelRel)) {
      InFlight check;
      check.expect = declared[PairKey(r.i, r.j)];
      check.due_s = t;
      check.measured = f.measured;
      send_line(c, "CLASSIFY " + std::to_string(r.i) + " " + std::to_string(r.j),
                std::move(check));
      flush(c);
    }
  };

  size_t next = 0, rr = 0;
  std::vector<pollfd> fds(conns.size());
  for (;;) {
    double t = now_s();
    if (!cpu_started && t >= warmup) {
      cpu0 = ReadProcCounters(pid);
      cpu_started = true;
    }
    while (next < stream.size() && stream[next].due_s <= t) {
      const Request& r = stream[next];
      InFlight f;
      f.index = static_cast<long>(next);
      f.due_s = r.due_s;
      f.measured = r.due_s >= warmup;
      if (f.measured) late_ms.push_back((t - r.due_s) * 1e3);
      Conn& c = r.is_read() ? conns[rr++ % static_cast<size_t>(readers)] : writer;
      if (r.verb == Verb::kAddRel)
        declared[PairKey(r.i, r.j)] = names[static_cast<size_t>(r.rel)];
      if (r.verb == Verb::kDelRel) declared[PairKey(r.i, r.j)] = names.back();
      send_line(c, r.line, std::move(f));
      flush(c);
      ++next;
    }
    bool idle = next == stream.size();
    for (const Conn& c : conns) idle = idle && (c.dead || c.inflight.empty());
    if (idle || t > drain_limit) break;

    for (size_t k = 0; k < conns.size(); ++k) {
      fds[k].fd = conns[k].dead ? -1 : conns[k].fd;
      fds[k].events = static_cast<short>(POLLIN | (conns[k].out.empty() ? 0 : POLLOUT));
      fds[k].revents = 0;
    }
    // Busy-poll: a sleeping generator adds the host's wake-up latency to
    // every send and every receive, and its noise swamps a 50 us median.
    timespec ts{0, 0};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    t = now_s();
    for (size_t k = 0; k < conns.size(); ++k) {
      Conn& c = conns[k];
      if (fds[k].revents & POLLOUT) flush(c);
      if (!(fds[k].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      char buf[65536];
      const ssize_t got = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (got <= 0) {
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
        c.dead = true;
        continue;
      }
      c.in.append(buf, static_cast<size_t>(got));
      size_t pos = 0, nl;
      while ((nl = c.in.find('\n', pos)) != std::string::npos) {
        if (c.inflight.empty()) break;
        on_response(c, c.in.substr(pos, nl - pos), t);
        pos = nl + 1;
      }
      c.in.erase(0, pos);
    }
  }
  cpu1 = ReadProcCounters(pid);
  const double pause_ms_per_s = pauses.PauseMsPerSecond();
  // Whatever is still unanswered failed and missed every latency limit.
  for (Conn& c : conns) {
    for (const InFlight& f : c.inflight) {
      if (f.measured) ++transport;
      if (f.measured && f.index >= 0)
        (stream[static_cast<size_t>(f.index)].is_read() ? read_ms : mut_ms)
            .push_back(drain_limit * 1e3);
    }
    ::close(c.fd);
  }
  const std::string stats = AskOnce(port, "STATS");

  JsonOut out;
  const long failed = attempted - ok;
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Num("gen.ok", static_cast<double>(ok));
  out.Num("gen.err_busy", static_cast<double>(busy));
  out.Num("gen.err_deadline", static_cast<double>(deadline));
  out.Num("gen.err_other", static_cast<double>(err));
  out.Num("gen.transport_fail", static_cast<double>(transport));
  out.Num("gen.late_p99_ms", Percentile(late_ms, 0.99));
  out.Num("gen.late_max_ms", Percentile(late_ms, 1.0));
  out.Num("host.pause_ms_per_s", pause_ms_per_s);
  out.Num("read_samples", static_cast<double>(read_ms.size()));
  out.Num("read_p50_ms", Percentile(read_ms, 0.5));
  out.Num("read_p99_ms", Percentile(read_ms, 0.99));
  out.Num("read_p999_ms", Percentile(read_ms, 0.999));
  out.Num("mutation_samples", static_cast<double>(mut_ms.size()));
  out.Num("mutate.visible_p50_ms", Percentile(mut_ms, 0.5));
  out.Num("mutate.visible_p99_ms", Percentile(mut_ms, 0.99));
  out.Num("readbacks", static_cast<double>(readbacks));
  out.Num("readback_mismatches", static_cast<double>(readback_mismatch));
  const double cpu_s = cpu1.user_s + cpu1.sys_s - cpu0.user_s - cpu0.sys_s;
  const double per_req = answered > 0 ? 1e6 / static_cast<double>(answered) : 0.0;
  out.Num("serve.cpu_us_per_req", cpu_s * per_req);
  out.Num("serve.cpu_user_us_per_req", (cpu1.user_s - cpu0.user_s) * per_req);
  out.Num("serve.cpu_sys_us_per_req", (cpu1.sys_s - cpu0.sys_s) * per_req);
  out.Num("serve.ctx_switches_per_req",
          (cpu1.ctx_switches - cpu0.ctx_switches) * per_req * 1e-6);
  const double hits = StatsField(stats, "cache_hits");
  const double misses = StatsField(stats, "cache_misses");
  out.Num("serve.topk_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  out.Num("serve.singleflight_waits", StatsField(stats, "singleflight"));
  out.Num("serve.compactions", StatsField(stats, "compactions"));
  out.Num("serve.overlay_pois", StatsField(stats, "overlay_pois"));
  out.Num("serve.overlay_edges", StatsField(stats, "overlay_edges"));
  out.Num("net.busy", StatsField(stats, "net_busy"));
  out.Num("net.deadline", StatsField(stats, "net_deadline"));
  out.Num("stats_ok", stats.rfind("OK", 0) == 0 ? 1 : 0);

  int mismatches = 0;
  if (!spec.churn) mismatches = CountMismatches(checkpoint, sample);
  out.Num("sample_checked", static_cast<double>(sample.size()));
  out.Num("sample_mismatches", mismatches);
  if (trace) {
    const double handler_us = TraceInProcess(checkpoint, stream, &out);
    out.Num("serve.transport_us", Percentile(read_ms, 0.5) * 1e3 - handler_us);
  }
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace perfbench
