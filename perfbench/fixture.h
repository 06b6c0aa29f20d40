#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

namespace perfbench {

/// `perfbench fixture --out <ckpt>`: trains and saves the serving checkpoint
/// of serve_read and serve_churn (see fixture.cc). Prints one JSON line.
int RunFixture(int argc, char** argv);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
