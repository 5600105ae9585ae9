#include "core/channel.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace dl::core {

Channel::Channel(const dl::dram::Geometry& geometry,
                 const dl::dram::Timing& timing,
                 const dl::dram::TimingSpec& timing_spec,
                 const dl::rowhammer::DisturbanceConfig& disturbance_config,
                 dl::Rng rng, dl::dram::MapScheme scheme)
    : ctrl(geometry, timing, scheme),
      disturbance(ctrl, disturbance_config, rng) {
  ctrl.set_timing_spec(timing_spec);
  ctrl.add_listener(&disturbance);
}

void merge_tenants(std::vector<dl::traffic::TenantStats>& into,
                   const std::vector<dl::traffic::TenantStats>& from) {
  if (into.empty()) {
    into = from;
    return;
  }
  DL_REQUIRE(into.size() == from.size(), "tenant roster changed shape");
  for (std::size_t i = 0; i < from.size(); ++i) into[i].merge(from[i]);
}

dl::traffic::TrafficReport merge_channels(
    const std::vector<dl::traffic::TrafficReport>& channels) {
  dl::traffic::TrafficReport merged;
  for (const auto& r : channels) {
    merge_tenants(merged.tenants, r.tenants);
    merged.serviced += r.serviced;
    merged.elapsed = std::max(merged.elapsed, r.elapsed);
  }
  return merged;
}

std::vector<dl::traffic::TrafficReport> run_round(
    const Channels& channels, Rosters& rosters,
    const dl::traffic::SchedulerConfig& scheduler,
    const dl::traffic::AdmissionSpec& admission, std::size_t scrub_tenant,
    std::vector<dl::traffic::TrafficReport>& totals) {
  std::vector<dl::traffic::TrafficReport> round(channels.size());
  dl::parallel::parallel_for(
      0, channels.size(), 1,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t c = begin; c < end; ++c) {
          Channel& ch = *channels[c];
          dl::integrity::DramScrubber* scrubber = ch.scrubber.get();
          const bool sweep =
              scrubber != nullptr && rosters[c][scrub_tenant].requests > 0;
          dl::traffic::TrafficEngine engine(ch.ctrl, std::move(rosters[c]),
                                            scheduler, admission);
          if (scrubber != nullptr) {
            engine.set_data_sink([&](const dl::traffic::Serviced& s) {
              if (s.req.tenant == scrub_tenant) {
                scrubber->on_read(s.req.addr, s.data);
              }
            });
          }
          dl::traffic::TrafficReport report = engine.run();
          if (sweep) scrubber->count_pass();
          dl::traffic::TrafficReport& total = totals[c];
          merge_tenants(total.tenants, report.tenants);
          total.serviced += report.serviced;
          total.elapsed += report.elapsed;
          round[c] = std::move(report);
        }
      });
  return round;
}

}  // namespace dl::core
