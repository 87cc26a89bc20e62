// perfbench_driver: runs one workload repeatedly for a fixed time and prints
// one JSON record per line for run.py, which checks the outputs and reduces
// the records to the benchmark's metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// Records, in order:
//   header    resolved workload parameters and host details
//   untraced  the warm-up run at the default seed ("warmup": true), whose
//             outcome run.py compares to the stored fingerprint
//   untraced / traced
//             the timed runs on inputs derived from --seed, repeated until
//             S seconds have passed; with --trace 1 they alternate,
//             untraced first
//   end       process peak RSS
// A run that returns an error prints an "error" record and exits 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "run.h"
#include "traced_driver.h"
#include "txallo/common/rng.h"
#include "txallo/common/stopwatch.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// The scenario seed whose outcome fingerprints.json stores.
constexpr uint64_t kDefaultSeed = 42;

// Each timed repetition runs on its own scenario seed derived from --seed,
// so a run's medians rest on many ledgers rather than on the quirks of one
// (rebalance times differ by up to ~20% between ledgers of one shape).
uint64_t InputSeed(uint64_t seed, uint64_t index) {
  uint64_t state = seed;
  state = txallo::SplitMix64(&state) + index;
  return txallo::SplitMix64(&state);
}

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1\nworkloads:",
               problem.c_str());
  for (const Workload& workload : Workloads()) {
    std::fprintf(stderr, " %s", workload.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

uint64_t ParseUint(const std::string& key, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 18) {
    Usage("--" + key + " needs a non-negative integer, got '" + text + "'");
  }
  return std::stoull(text);
}

// Every flag is required and takes a value; anything else is an error.
std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage("unexpected argument '" + arg + "'");
    arg = arg.substr(2);
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else {
      if (i + 1 >= argc) Usage("--" + arg + " needs a value");
      value = argv[++i];
    }
    if (arg != "workload" && arg != "seed" && arg != "seconds" &&
        arg != "trace") {
      Usage("unknown flag --" + arg);
    }
    if (!flags.emplace(arg, value).second) Usage("--" + arg + " given twice");
  }
  for (const char* key : {"workload", "seed", "seconds", "trace"}) {
    if (flags.count(key) == 0) Usage(std::string("missing --") + key);
  }
  return flags;
}

uint32_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void PrintHeader(const Workload& w, uint64_t seed, uint64_t seconds,
                 bool trace, uint32_t nproc, uint32_t workers) {
  std::printf(
      "{\"record\": \"header\", \"workload\": %s, \"seed\": %llu, "
      "\"default_seed\": %llu, \"seconds\": %llu, \"trace\": %d, "
      "\"nproc\": %u, \"workers\": %u, \"cpu\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"params\": {\"scenario\": %s, \"accounts\": %llu, "
      "\"communities\": %u, \"blocks\": %llu, \"txs_per_block\": %llu, "
      "\"initial_balance\": %lld, \"shards\": %u, \"eta\": %s, "
      "\"allocator\": %s, \"state\": %s, \"loop\": %s, \"offered_load\": %s, "
      "\"dispatch_per_tick\": %u, \"service_rate\": %s, \"epoch_blocks\": %u, "
      "\"allocator_mode\": \"sync\", \"ingest_producers\": 0}}\n",
      Quote(w.name).c_str(), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(kDefaultSeed),
      static_cast<unsigned long long>(seconds), trace ? 1 : 0, nproc,
      workers, Quote(CpuModel()).c_str(), Quote(Compiler()).c_str(),
      Quote(PERFBENCH_BUILD_TYPE).c_str(), Quote(w.scenario).c_str(),
      static_cast<unsigned long long>(w.accounts), w.communities,
      static_cast<unsigned long long>(w.blocks),
      static_cast<unsigned long long>(w.txs_per_block),
      static_cast<long long>(w.initial_balance), w.shards,
      Number(w.eta).c_str(), Quote(w.allocator).c_str(),
      w.state ? "true" : "false", w.open_loop ? "\"open\"" : "\"closed\"",
      Number(w.offered_load).c_str(), w.dispatch_per_tick,
      Number(w.service_rate).c_str(), w.epoch_blocks);
}

std::string SetupJson(const Setup& setup, uint64_t seed) {
  return "\"seed\": " + std::to_string(seed) +
         ", \"setup_s\": " + Number(setup.setup_seconds) +
         ", \"generate_s\": " + Number(setup.generate_seconds);
}

[[noreturn]] void Fail(const txallo::Status& status) {
  std::printf("{\"record\": \"error\", \"message\": %s}\n",
              Quote(status.ToString()).c_str());
  std::fflush(stdout);
  std::exit(1);
}

void UntracedRep(const Workload& workload, uint64_t seed, uint32_t workers,
                 bool warmup) {
  Setup setup = MakeSetup(workload, seed, workers);
  txallo::Result<UntracedRun> run = RunUntraced(workload, setup);
  if (!run.ok()) Fail(run.status());
  std::printf(
      "{\"record\": \"untraced\", \"warmup\": %s, %s, \"wall_s\": %s, "
      "\"alloc_update_s\": %s, \"load\": %s, \"outcome\": %s}\n",
      warmup ? "true" : "false", SetupJson(setup, seed).c_str(),
      Number(run->wall_seconds).c_str(),
      SecondsJson(run->alloc_update_seconds).c_str(),
      EngineLoadJson(run->load).c_str(), OutcomeJson(run->outcome).c_str());
  std::fflush(stdout);
}

void TracedRep(const Workload& workload, uint64_t seed, uint32_t workers) {
  Setup setup = MakeSetup(workload, seed, workers);
  txallo::Result<TracedRun> run = RunTraced(workload, setup);
  if (!run.ok()) Fail(run.status());
  std::string spans;
  for (size_t s = 0; s < kSpanCount; ++s) {
    if (!spans.empty()) spans += ", ";
    spans += Quote(SpanName(static_cast<Span>(s))) + ": " +
             SecondsJson(run->spans[s]);
  }
  std::printf(
      "{\"record\": \"traced\", %s, \"wall_s\": %s, \"spans\": {%s}, "
      "\"load\": %s, \"outcome\": %s}\n",
      SetupJson(setup, seed).c_str(), Number(run->wall_seconds).c_str(),
      spans.c_str(), EngineLoadJson(run->load).c_str(),
      OutcomeJson(run->outcome).c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  const Workload* workload = FindWorkload(flags.at("workload"));
  if (workload == nullptr) {
    Usage("unknown workload '" + flags.at("workload") + "'");
  }
  const uint64_t seed = ParseUint("seed", flags.at("seed"));
  const uint64_t seconds = ParseUint("seconds", flags.at("seconds"));
  const std::string& trace_flag = flags.at("trace");
  if (trace_flag != "0" && trace_flag != "1") {
    Usage("--trace must be 0 or 1, got '" + trace_flag + "'");
  }
  const bool trace = trace_flag == "1";

  // Workers plus the driver thread fit the usable CPUs: the engine is
  // driver-serial, so more threads would only measure the scheduler.
  const uint32_t nproc = UsableCpus();
  const uint32_t workers =
      std::min(std::max(1u, nproc - 1), workload->shards);
  PrintHeader(*workload, seed, seconds, trace, nproc, workers);

  UntracedRep(*workload, kDefaultSeed, workers, /*warmup=*/true);
  const txallo::Stopwatch window;
  for (uint64_t rep = 0;; ++rep) {
    // A traced repetition reuses the input of the untraced one before it,
    // which is what the parity check compares against.
    const uint64_t input = InputSeed(seed, trace ? rep / 2 : rep);
    if (trace && rep % 2 == 1) {
      TracedRep(*workload, input, workers);
    } else {
      UntracedRep(*workload, input, workers, /*warmup=*/false);
    }
    const bool both_kinds = !trace || rep >= 1;
    if (both_kinds &&
        window.ElapsedSeconds() >= static_cast<double>(seconds)) {
      break;
    }
  }

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("{\"record\": \"end\", \"peak_rss_kb\": %ld}\n",
              usage.ru_maxrss);
  return 0;
}
