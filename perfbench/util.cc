#include "util.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

Flags::Flags(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: expected --flag value, got '%s'\n",
                   arg.c_str());
      std::exit(2);
    }
    values_[arg.substr(2)] = argv[++i];
  }
}

std::string Flags::Str(const std::string& name, const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

long Flags::Int(const std::string& name, long def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    std::fprintf(stderr, "perfbench: --%s expects an integer, got '%s'\n",
                 name.c_str(), it->second.c_str());
    std::exit(2);
  }
  return v;
}

double Flags::Num(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(it->second.c_str(), &end);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    std::fprintf(stderr, "perfbench: --%s expects a number, got '%s'\n",
                 name.c_str(), it->second.c_str());
    std::exit(2);
  }
  return v;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void JsonOut::Num(const std::string& key, double v) {
  fields_.emplace_back(key, Number(v));
}

void JsonOut::List(const std::string& key, const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + Number(v[i]);
  fields_.emplace_back(key, s + "]");
}

void JsonOut::StrList(const std::string& key,
                      const std::vector<std::string>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + Quote(v[i]);
  fields_.emplace_back(key, s + "]");
}

std::string JsonOut::Render() const {
  std::string s = "{";
  for (size_t i = 0; i < fields_.size(); ++i)
    s += (i ? ", " : "") + Quote(fields_[i].first) + ": " + fields_[i].second;
  return s + "}";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

namespace {

std::string ProcPath(int pid, const std::string& leaf) {
  return "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) +
         "/" + leaf;
}

// Value of "Key:" in a /proc status file, or 0.
double StatusField(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0)
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
  }
  return 0.0;
}

}  // namespace

ProcCounters ReadProcCounters(int pid) {
  ProcCounters c;
  std::ifstream in(ProcPath(pid, "stat"));
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3.
  const size_t close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream fields(stat.substr(close + 2));
    std::vector<std::string> f;
    std::string tok;
    while (fields >> tok) f.push_back(tok);
    const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    if (f.size() > 12) {
      c.minflt = std::strtod(f[7].c_str(), nullptr);     // field 10
      c.user_s = std::strtod(f[11].c_str(), nullptr) / tick;  // field 14
      c.sys_s = std::strtod(f[12].c_str(), nullptr) / tick;   // field 15
    }
  }
  const std::string task_dir = ProcPath(pid, "task");
  if (DIR* dir = opendir(task_dir.c_str())) {
    while (dirent* e = readdir(dir)) {
      if (e->d_name[0] == '.') continue;
      const std::string status = task_dir + "/" + e->d_name + "/status";
      c.ctx_switches += StatusField(status, "voluntary_ctxt_switches") +
                        StatusField(status, "nonvoluntary_ctxt_switches");
    }
    closedir(dir);
  }
  return c;
}

double PeakRssMb(int pid) {
  return StatusField(ProcPath(pid, "status"), "VmHWM") / 1024.0;
}

double CalibrationMs() {
  // A dependent float chain plus an integer hash: neither vectorises nor
  // touches memory beyond registers, so it times the core alone.
  const auto t0 = Clock::now();
  float x = 1.0f;
  uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x = x * 0.999999f + 1e-7f;
    h = (h ^ static_cast<uint64_t>(i)) * 1099511628211ULL;
  }
  const double ms = SecondsSince(t0) * 1e3;
  if (x < 0.0f || h == 0) std::fprintf(stderr, "calibration: %g\n", x);
  return ms;
}

PauseMeter::PauseMeter() : start_(Clock::now()) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const auto t0 = Clock::now();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const double over_ms = SecondsSince(t0) * 1e3 - 1.0;
      // Timer slack and a normal wake-up stay well under 1 ms, so only an
      // oversleep longer than that counts as a pause.
      if (over_ms > 1.0)
        paused_ms_.store(paused_ms_.load(std::memory_order_relaxed) + over_ms,
                         std::memory_order_relaxed);
    }
  });
}

PauseMeter::~PauseMeter() {
  stop_.store(true);
  thread_.join();
}

double PauseMeter::PauseMsPerSecond() const {
  const double wall = SecondsSince(start_);
  return wall > 0.0 ? paused_ms_.load() / wall : 0.0;
}

std::string FloatBits(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", bits);
  return buf;
}

}  // namespace perfbench
