// Quickstart: run a small Flower-CDN simulation through the Experiment
// builder (src/api/experiment.h) and print the paper's four metrics. Any
// config knob can be overridden on the command line as key=value, e.g.:
//   ./quickstart duration=2h gossip_period=5min num_websites=20
//   ./quickstart system=squirrel               # via the SystemRegistry
#include <cstdio>

#include "api/experiment.h"

int main(int argc, char** argv) {
  flower::SimConfig config;
  // A small default scenario so the quickstart finishes in seconds.
  config.num_topology_nodes = 1200;
  config.num_websites = 20;
  config.num_active_websites = 4;
  config.max_content_overlay_size = 40;
  config.duration = 6 * flower::kHour;
  config.queries_per_second = 3.0;

  flower::Status status = config.ApplyArgs(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "bad arguments: %s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("Flower-CDN quickstart\n  config: %s\n\n",
              config.ToString().c_str());

  // One builder per run; the text sink prints each summary line.
  flower::TextSummarySink text;

  // An explicit system= override runs just that system, resolved through
  // the SystemRegistry (unknown keys fail with the known-key list).
  bool explicit_system = false;
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]).rfind("system=", 0) == 0) {
      explicit_system = true;
    }
  }
  if (explicit_system) {
    flower::RunResult r = flower::Experiment(config).AddSink(&text).Run();
    std::printf("\n  gossip           : steady-state background %.3f "
                "bps/peer\n",
                r.SteadyStateBackgroundBps());
    std::printf("  lookup  < 150 ms : %.0f%%\n",
                100 * r.LookupFractionBelow(150));
    std::printf("  transfer< 100 ms : %.0f%%\n",
                100 * r.TransferFractionBelow(100));
    std::printf("  engine           : %llu events in %.0f ms (%.0f ev/s)\n",
                static_cast<unsigned long long>(r.events_processed),
                r.wall_ms, r.EventsPerSec());
    std::printf("  memory           : peak_rss_mb=%.1f\n",
                static_cast<double>(r.peak_rss_bytes) / (1024.0 * 1024.0));
    return 0;
  }
  flower::RunResult flower_run = flower::Experiment(config)
                                     .WithSystem("flower")
                                     .AddSink(&text)
                                     .Run();
  flower::RunResult squirrel_run = flower::Experiment(config)
                                       .WithSystem("squirrel")
                                       .AddSink(&text)
                                       .Run();
  std::printf("\n");

  // Steady-state (tail windows) background traffic of the primary run,
  // once the startup flood has drained.
  std::printf("  gossip           : steady-state background %.3f bps/peer\n",
              flower_run.SteadyStateBackgroundBps());
  std::printf("  lookup  < 150 ms : flower %.0f%%  squirrel %.0f%%\n",
              100 * flower_run.LookupFractionBelow(150),
              100 * squirrel_run.LookupFractionBelow(150));
  std::printf("  transfer< 100 ms : flower %.0f%%  squirrel %.0f%%\n",
              100 * flower_run.TransferFractionBelow(100),
              100 * squirrel_run.TransferFractionBelow(100));
  // Engine throughput (RunResult carries it; sinks deliberately omit
  // the wall-clock numbers to keep output reproducible). The primary
  // (flower) run gets the full events/wall_ms/ev-s line so engine
  // regressions are visible straight from this smoke run, same as the
  // explicit-system path above.
  std::printf("  engine           : flower %llu events in %.0f ms "
              "(%.0f ev/s)  squirrel %.0f ev/s\n",
              static_cast<unsigned long long>(flower_run.events_processed),
              flower_run.wall_ms, flower_run.EventsPerSec(),
              squirrel_run.EventsPerSec());
  // Peak RSS of the primary run (host-dependent like wall_ms, so it
  // lives on its own maskable line, never in sinks).
  std::printf("  memory           : peak_rss_mb=%.1f\n",
              static_cast<double>(flower_run.peak_rss_bytes) /
                  (1024.0 * 1024.0));
  return 0;
}
