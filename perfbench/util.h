// Shared helpers for the perfbench binary: flag parsing, a flat JSON result
// writer, process counters read from /proc, and the two host-noise meters.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// "--name value" flags after the subcommand. Missing flags take the
/// default; a malformed number aborts with the flag's name.
class Flags {
 public:
  Flags(int argc, char** argv);
  std::string Str(const std::string& name, const std::string& def) const;
  long Int(const std::string& name, long def) const;
  double Num(const std::string& name, double def) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Ordered flat JSON object of numbers, number lists and string lists,
/// printed on one line. Numbers keep every digit (%.17g).
class JsonOut {
 public:
  void Num(const std::string& key, double v);
  void List(const std::string& key, const std::vector<double>& v);
  void StrList(const std::string& key, const std::vector<std::string>& v);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

double Median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q);

/// Counters of one process from /proc/<pid>/{stat,status} and its tasks.
struct ProcCounters {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;
  double ctx_switches = 0.0;  // voluntary + involuntary, summed over tasks.
};
ProcCounters ReadProcCounters(int pid);  // pid 0 = this process.
/// VmHWM in MiB; pid 0 = this process.
double PeakRssMb(int pid);

/// Times a fixed integer/float kernel that touches no shared state: its
/// drift over time is host drift, not program drift.
double CalibrationMs();

/// Sleeps 1 ms at a time on its own thread and accumulates every oversleep
/// beyond 1 ms, so a reader can tell host pauses from program stalls.
class PauseMeter {
 public:
  PauseMeter();
  ~PauseMeter();
  PauseMeter(const PauseMeter&) = delete;
  PauseMeter& operator=(const PauseMeter&) = delete;
  /// Milliseconds of pause per second of wall time so far.
  double PauseMsPerSecond() const;

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> paused_ms_{0.0};
  Clock::time_point start_;
  std::thread thread_;
};

/// Hex of a float's bits, for bitwise loss-curve comparison across
/// processes.
std::string FloatBits(float v);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
