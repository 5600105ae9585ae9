// Per-layer metrics of the traced run.
//
// Each layer is driven through its own public functions from here, with a
// span around every timed call, on the inputs of the workload being run.
// Where the workload does not load a layer (the hammer workload runs no NN
// code, the bfa workload no traffic), a small probe-size instance of the
// workload family that does is set up and run once, so every workload
// reports every per-layer metric.
#pragma once

#include <cstdint>

#include "metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

void layer_metrics(Workload& workload, std::uint64_t seed, Tracer& tracer,
                   Metrics& out);

}  // namespace perfbench
