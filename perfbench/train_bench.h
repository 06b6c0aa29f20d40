#ifndef PERFBENCH_TRAIN_BENCH_H_
#define PERFBENCH_TRAIN_BENCH_H_

namespace perfbench {

/// `perfbench train`: one fresh trainer process of the train_full or
/// train_sampled workload. Prints one JSON line (see train_bench.cc).
int RunTrain(int argc, char** argv);

}  // namespace perfbench

#endif  // PERFBENCH_TRAIN_BENCH_H_
