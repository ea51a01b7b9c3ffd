// flower_perf: the repository's performance benchmark — end-to-end metrics
// per workload plus a per-layer breakdown from a separate traced run. The
// metric names, units, directions and bounds come from BENCHMARK.json.
//
//   flower_perf bench --workload W --seed N --seconds S --trace 0|1
//       Repeats workload W for about S seconds and prints one JSON line:
//       the end-to-end metrics (trace 0) or the per-layer ones (trace 1).
//   flower_perf run [--seed=N] [--reps=R] [--workloads=a,b] [--out=PATH]
//       R timed runs of every workload, interleaved round-robin, then one
//       traced run each; prints every metric and writes a result file.
//   flower_perf compare A.json B.json
//       Verdict per workload and end-to-end metric between two result
//       files of `run`.
//   flower_perf smoke
//       `run` and `compare` over second-long configs (the harness check).
//
// Every measured run is a child process of its own (this binary re-execs
// itself with `child`), one at a time, so VmHWM peaks do not bleed from
// one run into the next. After each run this process makes one pass of
// the host-speed probe (host_speed.cc) and scales the run's host times by
// it, so a shared host's drift does not read as a change of the program.
// Any correctness check that fails makes the command exit non-zero and
// name the check.
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json.h"
#include "perf.h"

namespace {

using perf::Json;
using perf::Record;
using Clock = std::chrono::steady_clock;

constexpr int kMinTimedReps = 3;
constexpr int kMinTracedReps = 2;
constexpr int kMaxReps = 64;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Paths --------------------------------------------------------------------

std::string SelfPath() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

/// perf/out of the source tree this binary was built from.
std::string OutDir() {
  const std::string dir = std::string(FLOWER_PERF_DIR) + "/out";
  mkdir(dir.c_str(), 0755);
  return dir;
}

std::string BenchmarkPath() {
  return std::string(FLOWER_PERF_DIR) + "/../BENCHMARK.json";
}

// --- BENCHMARK.json -----------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_better = false;
  double bound = 0;
};

struct Spec {
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

bool ReadMetrics(const Json& root, const char* key,
                 std::vector<MetricSpec>* out) {
  const Json* list = root.Find(key);
  if (list == nullptr || list->type != Json::Type::kArray) return false;
  for (const Json& item : list->array) {
    const Json* name = item.Find("name");
    const Json* unit = item.Find("unit");
    const Json* better = item.Find("better");
    if (name == nullptr || unit == nullptr || better == nullptr) return false;
    MetricSpec m;
    m.name = name->string;
    m.unit = unit->string;
    m.higher_better = better->string == "higher";
    if (const Json* bound = item.Find("bound")) m.bound = bound->number;
    out->push_back(m);
  }
  return true;
}

bool LoadSpec(Spec* spec, std::string* error) {
  const std::string path = BenchmarkPath();
  Json root;
  if (!perf::ReadJsonFile(path, &root, error)) return false;
  if (!ReadMetrics(root, "end_to_end", &spec->end_to_end) ||
      !ReadMetrics(root, "per_layer", &spec->per_layer)) {
    *error = path + ": malformed end_to_end or per_layer";
    return false;
  }
  return true;
}

// --- Child runs ---------------------------------------------------------------

struct ChildRun {
  std::string workload;
  uint64_t seed = 42;
  bool smoke = false;
  bool traced = false;
};

/// Runs one measured run in a child process and parses its record.
bool RunChild(const ChildRun& run, Record* out, std::string* error) {
  const std::string self = SelfPath();
  const std::string seed = std::to_string(run.seed);
  const std::string trace =
      run.traced ? OutDir() + "/" + (run.smoke ? "smoke-" : "") + "trace-" +
                       run.workload + ".json"
                 : "";
  std::vector<const char*> argv = {self.c_str(), "child", run.workload.c_str(),
                                   seed.c_str(), run.smoke ? "1" : "0"};
  if (run.traced) argv.push_back(trace.c_str());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(self.c_str(), const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) != 0) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "child run of " + run.workload + " exited abnormally";
    return false;
  }

  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("V ", 0) == 0) {
      const size_t space = line.find(' ', 2);
      if (space == std::string::npos) continue;
      out->values[line.substr(2, space - 2)] =
          std::strtod(line.c_str() + space + 1, nullptr);
    } else if (line.rfind("F ", 0) == 0) {
      out->fingerprint = line.substr(2);
    } else if (line.rfind("X ", 0) == 0) {
      out->failed_check = line.substr(2);
    }
  }
  if (out->fingerprint.empty()) {
    *error = "child run of " + run.workload + " failed: " + out->failed_check;
    return false;
  }
  return true;
}

/// Host time of one probe pass at the reference host speed: a round value
/// near a pass on the reference box in a quiet phase (README.md, Host
/// speed).
constexpr double kReferenceProbeSeconds = 0.3;

/// Runs one measured run, then one probe pass, and adds the run's host
/// times scaled to the reference host speed: loop_s and setup_s.
bool RunMeasured(const ChildRun& run, perf::HostProbe* probe, Record* out,
                 std::string* error) {
  if (!RunChild(run, out, error)) return false;
  const double probe_s = probe->PassSeconds();
  const double scale = kReferenceProbeSeconds / probe_s;
  out->values["host.probe_ms"] = probe_s * 1e3;
  out->values["loop_s"] = out->values.at("host.loop_s") * scale;
  out->values["setup_s"] = out->values.at("host.setup_s") * scale;
  return true;
}

/// `child WORKLOAD SEED SMOKE [TRACE_PATH]`: one measured run, printed as
/// `V name value`, `F fingerprint` and `X failed-check` lines.
int ChildMain(int argc, char** argv) {
  if (argc < 5) return 2;
  const perf::Workload* workload = perf::FindWorkload(argv[2]);
  if (workload == nullptr) return 2;
  const Record r = perf::RunOnce(*workload, std::strtoull(argv[3], nullptr, 10),
                                 std::strcmp(argv[4], "1") == 0,
                                 argc > 5 ? argv[5] : "");
  for (const auto& kv : r.values) {
    std::printf("V %s %.17g\n", kv.first.c_str(), kv.second);
  }
  if (!r.fingerprint.empty()) std::printf("F %s\n", r.fingerprint.c_str());
  if (!r.failed_check.empty()) std::printf("X %s\n", r.failed_check.c_str());
  return 0;
}

// --- Statistics ---------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Python's statistics.quantiles(v, n=4) (the "exclusive" method).
std::array<double, 3> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 0) return {0, 0, 0};
  if (ld == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> q{};
  const long m = ld + 1;
  for (long i = 1; i <= 3; ++i) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[static_cast<size_t>(i - 1)] =
        (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
        4;
  }
  return q;
}

// --- Correctness --------------------------------------------------------------

/// The check `r` breaks against `ref`, the first timed run of its
/// workload and seed, or "".
std::string CheckRun(const Record& r, const Record& ref, bool traced) {
  if (!r.failed_check.empty()) return r.failed_check;
  if (r.fingerprint != ref.fingerprint) {
    return traced ? "traced run simulates exactly what the timed runs do"
                  : "determinism: fingerprint identical across reps";
  }
  return "";
}

/// Checks every run of one workload and seed. Returns how many runs broke
/// a check and sets `first` to the first check broken.
size_t CheckRuns(const std::vector<Record>& timed,
                 const std::vector<Record>& traced, std::string* first) {
  size_t failed = 0;
  for (const std::vector<Record>* runs : {&timed, &traced}) {
    for (const Record& r : *runs) {
      const std::string check = CheckRun(r, timed.front(), runs == &traced);
      if (check.empty()) continue;
      if (failed++ == 0) *first = check;
    }
  }
  return failed;
}

/// The first of `metrics` that some run lacks, or "".
std::string MissingMetric(const std::vector<Record>& runs,
                          const std::vector<MetricSpec>& metrics) {
  for (const MetricSpec& m : metrics) {
    for (const Record& r : runs) {
      if (r.values.count(m.name) == 0) return m.name;
    }
  }
  return "";
}

std::vector<double> Values(const std::vector<Record>& runs,
                           const std::string& name) {
  std::vector<double> out;
  for (const Record& r : runs) out.push_back(r.values.at(name));
  return out;
}

/// Queries never served: lost with a requester that left or was promoted
/// mid-query, or (a defect) stuck past the drain.
uint64_t LostQueries(const Record& r) {
  return static_cast<uint64_t>(r.values.at("queries_submitted") -
                               r.values.at("queries_served"));
}

// --- Argument parsing ---------------------------------------------------------

/// `--key value` and `--key=value` options plus positional arguments.
struct Args {
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      args.positional.push_back(a);
      continue;
    }
    const size_t eq = a.find('=');
    if (eq != std::string::npos) {
      args.options[a.substr(2, eq - 2)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      args.options[a.substr(2)] = argv[++i];
    } else {
      args.options[a.substr(2)] = "";
    }
  }
  return args;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

void PrintMetricRow(FILE* f, const MetricSpec& m,
                    const std::vector<double>& values) {
  const std::array<double, 3> q = Quartiles(values);
  std::fprintf(f, "  %-28s %-7s %14.6g %14.6g %14.6g  (%s)\n", m.name.c_str(),
               m.unit.c_str(), Median(values), q[0], q[2],
               m.higher_better ? "higher" : "lower");
}

// --- bench --------------------------------------------------------------------

int Bench(const Args& args) {
  const std::string name = args.Get("workload", "");
  uint64_t seed = 0;
  uint64_t seconds = 0;
  const std::string trace_arg = args.Get("trace", "0");
  if (perf::FindWorkload(name) == nullptr ||
      !ParseUint(args.Get("seed", "42"), &seed) ||
      !ParseUint(args.Get("seconds", ""), &seconds) || seconds == 0 ||
      (trace_arg != "0" && trace_arg != "1")) {
    std::fprintf(stderr,
                 "usage: flower_perf bench --workload W --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  Spec spec;
  std::string error;
  if (!LoadSpec(&spec, &error)) {
    std::fprintf(stderr, "flower_perf: %s\n", error.c_str());
    return 2;
  }
  const bool trace = trace_arg == "1";
  perf::HostProbe probe;

  // Repeat runs while the next one is expected to end inside the budget.
  // A traced measurement makes one timed run to check the traced ones
  // against.
  std::vector<Record> timed;
  std::vector<Record> traced;
  const Clock::time_point start = Clock::now();
  for (;;) {
    const size_t done = timed.size() + traced.size();
    const bool need = trace ? timed.empty() || traced.size() < kMinTracedReps
                            : timed.size() < kMinTimedReps;
    const double per_run = done > 0 ? SecondsSince(start) / done : 0;
    if (!need && (done >= kMaxReps ||
                  SecondsSince(start) + per_run > static_cast<double>(seconds))) {
      break;
    }
    ChildRun run;
    run.workload = name;
    run.seed = seed;
    run.traced = trace && !timed.empty();
    Record record;
    if (!RunMeasured(run, &probe, &record, &error)) {
      std::fprintf(stderr, "flower_perf: %s\n", error.c_str());
      return 1;
    }
    (run.traced ? traced : timed).push_back(record);
  }

  std::string failed_check;
  const size_t failed_runs = CheckRuns(timed, traced, &failed_check);
  const std::vector<MetricSpec>& metrics = trace ? spec.per_layer : spec.end_to_end;
  const std::vector<Record>& source = trace ? traced : timed;
  const std::string missing = MissingMetric(source, metrics);
  if (!missing.empty()) {
    std::fprintf(stderr, "flower_perf: no value for metric %s\n",
                 missing.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s seed=%" PRIu64 " %s: %zu timed + %zu traced runs\n",
               name.c_str(), seed, trace ? "per-layer" : "end-to-end",
               timed.size(), traced.size());
  if (!trace) {
    // The raw host times behind loop_s and setup_s, for the record.
    for (const char* host : {"host.loop_s", "host.setup_s", "host.probe_ms"}) {
      PrintMetricRow(stderr, {host, "", false, 0}, Values(timed, host));
    }
  }
  std::string json;
  for (const MetricSpec& m : metrics) {
    const std::vector<double> values = Values(source, m.name);
    PrintMetricRow(stderr, m, values);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", Median(values));
    json += (json.empty() ? "" : ", ") + perf::JsonQuote(m.name) +
            ": {\"value\": " + buf + ", \"unit\": " + perf::JsonQuote(m.unit) +
            "}";
  }
  if (failed_runs > 0) {
    std::fprintf(stderr, "flower_perf: correctness check failed: %s\n",
                 failed_check.c_str());
  }
  // An operation of the program is one simulated run. Queries lost inside
  // the simulation are an outcome of it, measured by query_success.
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              failed_runs == 0 ? "true" : "false",
              timed.size() + traced.size(), failed_runs, json.c_str());
  return failed_runs == 0 ? 0 : 1;
}

// --- run ----------------------------------------------------------------------

struct Suite {
  uint64_t seed = 42;
  int reps = 3;
  bool smoke = false;
  std::vector<std::string> workloads;
  std::string out;
};

/// Runs the suite, prints every metric and writes the result file.
/// Returns 0, or 1 when a run or a correctness check failed.
int RunSuite(const Suite& suite, const Spec& spec) {
  std::map<std::string, std::vector<Record>> timed;
  std::map<std::string, std::vector<Record>> traced;
  std::string error;
  perf::HostProbe probe;
  for (int rep = 0; rep <= suite.reps; ++rep) {
    for (const std::string& w : suite.workloads) {
      ChildRun run;
      run.workload = w;
      run.seed = suite.seed;
      run.smoke = suite.smoke;
      run.traced = rep == suite.reps;
      Record record;
      const Clock::time_point start = Clock::now();
      if (!RunMeasured(run, &probe, &record, &error)) {
        std::fprintf(stderr, "flower_perf: %s\n", error.c_str());
        return 1;
      }
      std::fprintf(stderr, "  %s %s %d: %.1f s\n", w.c_str(),
                   run.traced ? "traced" : "rep", rep, SecondsSince(start));
      (run.traced ? traced : timed)[w].push_back(record);
    }
  }
  for (const std::string& w : suite.workloads) {
    std::string missing = MissingMetric(timed[w], spec.end_to_end);
    if (missing.empty()) missing = MissingMetric(traced[w], spec.per_layer);
    if (!missing.empty()) {
      std::fprintf(stderr, "flower_perf: no value for metric %s\n",
                   missing.c_str());
      return 1;
    }
  }

  FILE* f = std::fopen(suite.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "flower_perf: cannot write %s\n", suite.out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"seed\": %" PRIu64 ",\n  \"reps\": %d,\n"
                  "  \"smoke\": %s,\n  \"workloads\": [\n",
               suite.seed, suite.reps, suite.smoke ? "true" : "false");
  int status = 0;
  for (size_t wi = 0; wi < suite.workloads.size(); ++wi) {
    const std::string& w = suite.workloads[wi];
    const std::vector<Record>& runs = timed[w];
    std::string failed_check;
    const bool correct = CheckRuns(runs, traced[w], &failed_check) == 0;
    const Record& ref = runs.front();
    std::printf("\n%s  seed=%" PRIu64 " reps=%d fingerprint=%s queries=%.0f "
                "lost=%" PRIu64 "\n",
                w.c_str(), suite.seed, suite.reps, ref.fingerprint.c_str(),
                ref.values.at("queries_submitted"), LostQueries(ref));
    if (!correct) {
      std::printf("  CORRECTNESS CHECK FAILED: %s\n", failed_check.c_str());
      status = 1;
    }
    std::printf("  %-28s %-7s %14s %14s %14s\n", "end-to-end", "unit", "median",
                "q1", "q3");
    std::fprintf(f, "    {\"name\": %s, \"fingerprint\": %s, "
                    "\"queries\": %.0f, \"lost\": %" PRIu64
                    ", \"correct\": %s,\n      \"runs\": {",
                 perf::JsonQuote(w).c_str(),
                 perf::JsonQuote(ref.fingerprint).c_str(),
                 ref.values.at("queries_submitted"), LostQueries(ref),
                 correct ? "true" : "false");
    for (size_t mi = 0; mi < spec.end_to_end.size(); ++mi) {
      const MetricSpec& m = spec.end_to_end[mi];
      const std::vector<double> values = Values(runs, m.name);
      PrintMetricRow(stdout, m, values);
      std::fprintf(f, "%s%s: [", mi ? ", " : "", perf::JsonQuote(m.name).c_str());
      for (size_t i = 0; i < values.size(); ++i) {
        std::fprintf(f, "%s%.17g", i ? ", " : "", values[i]);
      }
      std::fprintf(f, "]");
    }
    std::printf("  %-28s %-7s %14s  (traced run)\n", "per-layer", "unit",
                "value");
    std::fprintf(f, "},\n      \"traced\": {");
    for (size_t mi = 0; mi < spec.per_layer.size(); ++mi) {
      const MetricSpec& m = spec.per_layer[mi];
      const double v = traced[w].front().values.at(m.name);
      std::printf("  %-28s %-7s %14.6g\n", m.name.c_str(), m.unit.c_str(), v);
      std::fprintf(f, "%s%s: %.17g", mi ? ", " : "",
                   perf::JsonQuote(m.name).c_str(), v);
    }
    std::fprintf(f, "}}%s\n", wi + 1 < suite.workloads.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", suite.out.c_str());
  return status;
}

std::vector<std::string> SplitList(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int Run(const Args& args, bool smoke) {
  Suite suite;
  suite.smoke = smoke;
  uint64_t reps = smoke ? 2 : 3;
  if (!ParseUint(args.Get("seed", "42"), &suite.seed) ||
      !ParseUint(args.Get("reps", std::to_string(reps)), &reps) || reps == 0 ||
      reps > kMaxReps) {
    std::fprintf(stderr, "usage: flower_perf run [--seed=N] [--reps=R] "
                         "[--workloads=a,b] [--out=PATH]\n");
    return 2;
  }
  suite.reps = static_cast<int>(reps);
  for (const perf::Workload& w : perf::Workloads()) suite.workloads.push_back(w.name);
  if (args.options.count("workloads")) {
    suite.workloads = SplitList(args.Get("workloads", ""));
  }
  for (const std::string& w : suite.workloads) {
    if (perf::FindWorkload(w) == nullptr) {
      std::fprintf(stderr, "flower_perf: unknown workload %s\n", w.c_str());
      return 2;
    }
  }
  suite.out = args.Get("out", OutDir() + "/" + (smoke ? "smoke" : "run") +
                                  "-seed" + std::to_string(suite.seed) +
                                  ".json");
  Spec spec;
  std::string error;
  if (!LoadSpec(&spec, &error)) {
    std::fprintf(stderr, "flower_perf: %s\n", error.c_str());
    return 2;
  }
  return RunSuite(suite, spec);
}

// --- compare ------------------------------------------------------------------

struct Side {
  std::string fingerprint;
  double queries = 0;
  double lost = 0;
  std::map<std::string, std::vector<double>> runs;
};

bool LoadSides(const std::string& path, std::map<std::string, Side>* out,
               std::string* error) {
  Json root;
  if (!perf::ReadJsonFile(path, &root, error)) return false;
  const Json* workloads = root.Find("workloads");
  if (workloads == nullptr || workloads->type != Json::Type::kArray) {
    *error = path + ": not a result file of flower_perf run";
    return false;
  }
  for (const Json& w : workloads->array) {
    const Json* name = w.Find("name");
    const Json* runs = w.Find("runs");
    if (name == nullptr || runs == nullptr) continue;
    Side& side = (*out)[name->string];
    if (const Json* fp = w.Find("fingerprint")) side.fingerprint = fp->string;
    if (const Json* q = w.Find("queries")) side.queries = q->number;
    if (const Json* l = w.Find("lost")) side.lost = l->number;
    for (const auto& metric : runs->object) {
      for (const Json& v : metric.second.array) {
        side.runs[metric.first].push_back(v.number);
      }
    }
  }
  return true;
}

/// better / worse / unchanged / unresolved for one metric, B against A.
/// A gain needs at least ten pairs, B ahead in >= 9/10 of them and B's
/// median ahead by more than A's quartile spread. A regression is a
/// median worse by more than the bound; a spread wider than the bound
/// leaves the metric unresolved unless every B run beats every A run.
const char* Verdict(const MetricSpec& m, const std::vector<double>& a,
                    const std::vector<double>& b) {
  const double sign = m.higher_better ? -1 : 1;  // positive = worse
  const double ma = Median(a);
  const double mb = Median(b);
  const std::array<double, 3> qa = Quartiles(a);
  const std::array<double, 3> qb = Quartiles(b);
  const double scale = std::fabs(ma) > 0 ? std::fabs(ma) : 1;
  const double worse_by = sign * (mb - ma) / scale;
  const double spread =
      std::max(qa[2] - qa[0], qb[2] - qb[0]) / scale;

  const size_t pairs = std::min(a.size(), b.size());
  size_t b_wins = 0;
  for (size_t i = 0; i < pairs; ++i) b_wins += sign * (b[i] - a[i]) < 0;
  bool b_all_better = !a.empty() && !b.empty();
  for (double x : a) {
    for (double y : b) b_all_better = b_all_better && sign * (y - x) < 0;
  }
  const bool wins = pairs >= 10 && b_wins * 10 >= pairs * 9;
  if (worse_by < 0 && std::fabs(mb - ma) > qa[2] - qa[0] && wins) {
    return "better";
  }
  if (b_all_better) return "unchanged";
  if (spread > m.bound) return "unresolved";
  return worse_by > m.bound ? "worse" : "unchanged";
}

int Compare(const Args& args) {
  if (args.positional.size() != 2) {
    std::fprintf(stderr, "usage: flower_perf compare A.json B.json\n");
    return 2;
  }
  Spec spec;
  std::map<std::string, Side> a;
  std::map<std::string, Side> b;
  std::string error;
  if (!LoadSpec(&spec, &error) ||
      !LoadSides(args.positional[0], &a, &error) ||
      !LoadSides(args.positional[1], &b, &error)) {
    std::fprintf(stderr, "flower_perf: %s\n", error.c_str());
    return 2;
  }
  int worse = 0;
  for (const auto& entry : a) {
    const auto other = b.find(entry.first);
    if (other == b.end()) continue;
    const Side& sa = entry.second;
    const Side& sb = other->second;
    std::printf("\n%s  fingerprint %s  lost-query share A=%.6g B=%.6g\n",
                entry.first.c_str(),
                sa.fingerprint == sb.fingerprint ? "unchanged" : "CHANGED",
                sa.queries > 0 ? sa.lost / sa.queries : 0,
                sb.queries > 0 ? sb.lost / sb.queries : 0);
    std::printf("  %-18s %-6s %12s %12s %12s | %12s %12s %12s  %s\n", "metric",
                "unit", "A median", "A q1", "A q3", "B median", "B q1", "B q3",
                "verdict");
    for (const MetricSpec& m : spec.end_to_end) {
      const auto ia = sa.runs.find(m.name);
      const auto ib = sb.runs.find(m.name);
      if (ia == sa.runs.end() || ib == sb.runs.end()) continue;
      const std::array<double, 3> qa = Quartiles(ia->second);
      const std::array<double, 3> qb = Quartiles(ib->second);
      const char* verdict = Verdict(m, ia->second, ib->second);
      worse += std::strcmp(verdict, "worse") == 0;
      std::printf("  %-18s %-6s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g  %s\n",
                  m.name.c_str(), m.unit.c_str(), Median(ia->second), qa[0],
                  qa[2], Median(ib->second), qb[0], qb[2], verdict);
    }
  }
  return worse > 0 ? 1 : 0;
}

// --- smoke --------------------------------------------------------------------

int Smoke() {
  const std::string out = OutDir() + "/smoke-seed42.json";
  Args run_args;
  run_args.options["out"] = out;
  const int status = Run(run_args, /*smoke=*/true);
  if (status != 0) return status;
  Args compare_args;
  compare_args.positional = {out, out};
  return Compare(compare_args);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  if (mode == "child") return ChildMain(argc, argv);
  const Args args = ParseArgs(argc, argv, 2);
  if (mode == "bench") return Bench(args);
  if (mode == "run") return Run(args, /*smoke=*/false);
  if (mode == "compare") return Compare(args);
  if (mode == "smoke") return Smoke();
  std::fprintf(stderr,
               "usage: flower_perf bench --workload W --seed N --seconds S "
               "--trace 0|1\n"
               "       flower_perf run [--seed=N] [--reps=R] "
               "[--workloads=a,b] [--out=PATH]\n"
               "       flower_perf compare A.json B.json\n"
               "       flower_perf smoke\n");
  return 2;
}
