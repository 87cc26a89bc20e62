// Regenerates the committed golden trace fixture and its CSV dump. Not a
// test — the `regen-golden-trace` CMake target runs it with the testdata
// paths after an intentional behaviour or format change:
//
//   cmake --build build --target regen-golden-trace
//
// Review the resulting fixture diff like any other golden update.
#include <cstdio>

#include "golden_trace_fixture.h"
#include "txallo/engine/replay.h"

int main(int argc, char** argv) {
  using namespace txallo;
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <output-trace-path> <output-csv-path>\n",
                 argv[0]);
    return 2;
  }
  auto log = testing::RecordGoldenTrace();
  if (!log.ok()) {
    std::fprintf(stderr, "recording the golden scenario failed: %s\n",
                 log.status().ToString().c_str());
    return 1;
  }
  if (Status saved = engine::SaveReplayLog(*log, argv[1]); !saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  if (Status dumped = engine::DumpReplayLogCsv(*log, argv[2]); !dumped.ok()) {
    std::fprintf(stderr, "%s\n", dumped.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu prepares, %zu commits, %zu installs, %zu steps\n",
              argv[1], log->prepares.size(), log->commits.size(),
              log->installs.size(), log->steps.size());
  return 0;
}
