// perfbench: the end-to-end benchmark of the DRAM-Locker simulator.
//
//   perfbench --workload bfa|serve|chaos|hammer --seed N --seconds S
//             --trace 0|1 [--trace-out PATH] [--size full|probe]
//             [--report PATH]
//
// Runs setup, then closed-batch rounds of the workload until S seconds of
// rounds have run (at least one), checks every round's simulated outputs,
// and prints the metrics by name with their units.  The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; with --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones of the traced run.  perfbench/run.py builds
// this binary and is the command BENCHMARK.json names.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "metrics.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string report_out;
  Size size = Size::kFull;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "bfa|serve|chaos|hammer --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--size full|probe] [--report PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else if (flag == "--report") {
        o.report_out = value;
      } else if (flag == "--size") {
        if (value != "full" && value != "probe") usage("--size: full|probe");
        o.size = value == "full" ? Size::kFull : Size::kProbe;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds >= 0.0)) usage("--seconds must be >= 0");
  return o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_metric(const Metric& m) {
  std::printf("  %-32s %16.6g %-8s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

std::string json_line(bool correct, std::uint64_t attempted,
                      std::uint64_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

int run(const Options& opt) {
  auto workload = make_workload(opt.workload, opt.seed, opt.size);
  if (!workload) usage(("unknown workload " + opt.workload).c_str());
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "threads=%zu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, dl::parallel::max_threads());

  Tracer tracer(opt.trace);
  Tracer untraced(false);

  // -- setup: repeated so setup_s is a median --------------------------------
  std::vector<double> setup_s;
  const int setup_reps = opt.trace ? 1 : workload->setup_reps();
  for (int i = 0; i < setup_reps; ++i) {
    setup_s.push_back(time_s([&] { workload->setup(tracer); }));
  }

  // -- timed rounds (closed batch) -------------------------------------------
  // The traced run alternates traced and untraced rounds, starting traced
  // (so the printed digest is a traced round's); the tracing overhead is
  // the difference of their median walls.
  std::vector<double> ns_per_op, traced_s, untraced_s, report_s;
  std::uint64_t attempted = 0, failed = 0, ops = 0;
  std::string first_report;
  double elapsed = 0.0;
  for (std::size_t n = 0;
       n == 0 || elapsed < opt.seconds || (opt.trace && n < 2); ++n) {
    const bool traced = opt.trace && n % 2 == 0;
    RoundResult r;
    const double s =
        time_s([&] { r = workload->round(traced ? tracer : untraced); });
    elapsed += s;
    (traced ? traced_s : untraced_s).push_back(s);
    report_s.push_back(r.report_s);
    ns_per_op.push_back(r.ops > 0 ? s * 1e9 / static_cast<double>(r.ops) : 0.0);
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.failures) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    }
    if (n == 0) {
      first_report = r.report;
      ops = r.ops;
    } else {
      ++attempted;
      if (r.report != first_report) {
        ++failed;
        std::fprintf(stderr, "perfbench: round %zu report differs from "
                             "round 0 (non-deterministic simulation)\n", n);
      }
    }
  }
  const std::uint32_t digest = dl::crc32(first_report);
  if (!opt.report_out.empty()) {
    std::ofstream(opt.report_out) << first_report << '\n';
  }

  // -- end-to-end metrics ----------------------------------------------------
  Metrics e2e, shown;
  const double per_op = median(ns_per_op);
  const std::string rounds_note =
      "median of " + std::to_string(ns_per_op.size()) + " rounds x " +
      std::to_string(ops) + " " + workload->op_unit() + "s";
  e2e.set("host_ns_per_op", per_op, "ns", rounds_note);
  e2e.set("setup_s", median(setup_s), "s",
          "median of " + std::to_string(setup_s.size()) + " setups");
  e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  if (opt.workload == "bfa") {
    shown.set("bfa_iter_per_s", per_op > 0 ? 1e9 / per_op : 0.0, "1/s",
              "1e9 / host_ns_per_op");
  } else if (opt.workload == "hammer") {
    shown.set("host_ns_per_act", per_op, "ns", rounds_note);
  } else {
    shown.set("host_ns_per_req", per_op, "ns", rounds_note);
  }
  shown.set("error_rate",
            attempted > 0 ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0,
            "frac",
            std::to_string(failed) + " of " + std::to_string(attempted) +
                " campaigns and checks failed");
  workload->sim_metrics(shown);

  std::printf("end-to-end (host time unless sim):\n");
  for (const Metric& m : e2e.items()) print_metric(m);
  for (const Metric& m : shown.items()) print_metric(m);
  std::printf("rounds (host ns per %s):", workload->op_unit());
  for (const double v : ns_per_op) std::printf(" %.4g", v);
  std::printf("\nsim digest: %s %08x\n", opt.workload.c_str(), digest);

  Metrics layers;
  if (opt.trace) {
    layer_metrics(*workload, opt.seed, tracer, layers);
    layers.set("scenario.report_ms", 1e3 * median(report_s), "ms",
               "report_json + dump, median of " +
                   std::to_string(report_s.size()) + " rounds");
    layers.set("trace.overhead_ms",
               1e3 * (median(traced_s) - median(untraced_s)), "ms",
               "median traced round minus median untraced round");
    std::printf("per-layer (traced run):\n");
    for (const Metric& m : layers.items()) print_metric(m);
    std::printf("per-layer spans: %-12s %8s %12s %12s\n", "layer", "count",
                "busy_ms", "self_ms");
    for (const auto& l : tracer.summary()) {
      std::printf("                 %-12s %8zu %12.3f %12.3f\n",
                  l.layer.c_str(), l.count, l.busy_ms, l.self_ms);
    }
    if (!opt.trace_out.empty()) {
      tracer.write_chrome_trace(opt.trace_out);
      std::printf("trace written to %s\n", opt.trace_out.c_str());
    }
  }

  std::printf("%s\n", json_line(failed == 0, attempted, failed,
                                opt.trace ? layers : e2e)
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
