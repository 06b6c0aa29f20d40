// perfbench: the C++ half of the repository benchmark. perfbench/run.py
// builds it and runs its subcommands as child processes:
//
//   perfbench train    one trainer process (train_full / train_sampled)
//   perfbench fixture  trains and saves the serving checkpoint
//   perfbench load     open-loop load generator against prim_serve
//   perfbench calib    times the host calibration kernel and pause meter
//
// Each subcommand prints one JSON line on stdout.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "fixture.h"
#include "loadgen.h"
#include "train_bench.h"
#include "util.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench train|fixture|load|calib [--flag value]...\n");
    return 2;
  }
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "train") == 0) return perfbench::RunTrain(argc, argv);
  if (std::strcmp(cmd, "fixture") == 0) return perfbench::RunFixture(argc, argv);
  if (std::strcmp(cmd, "load") == 0) return perfbench::RunLoad(argc, argv);
  if (std::strcmp(cmd, "calib") == 0) {
    // The pause meter needs a quiet second: inside a trainer it would
    // compete with the worker pool for the cores it is meant to watch.
    const double calib_ms = perfbench::CalibrationMs();
    double pause = 0.0;
    {
      perfbench::PauseMeter meter;
      std::this_thread::sleep_for(std::chrono::seconds(1));
      pause = meter.PauseMsPerSecond();
    }
    std::printf("{\"host.calib_ms\": %.17g, \"host.pause_ms_per_s\": %.17g}\n",
                calib_ms, pause);
    return 0;
  }
  std::fprintf(stderr, "perfbench: unknown subcommand '%s'\n", cmd);
  return 2;
}
