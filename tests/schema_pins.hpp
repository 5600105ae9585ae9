// Hand-built campaign results that pin every report and journal key.
//
// Each result turns on every optional block and gives every numeric field
// its own value, so a field written under another field's key, or read
// back into another field, changes the report's digest.  The values are
// assigned by member name with designated initializers, never through a
// field table: a table walk would give two swapped table rows consistent
// values and hide the swap.
//
// tests/golden_report_test.cpp pins the report digests; tests/journal_test.cpp
// embeds journal lines written for these results and checks that they load
// and re-render to the same digests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace schema_pins {

using dl::traffic::StreamKind;
using dl::traffic::TenantStats;

/// Report digests recorded for the results below.
inline constexpr std::uint32_t kHammerCrc = 0x8dde4bf6u;
inline constexpr std::uint32_t kServeCrc = 0x56adc430u;
inline constexpr std::uint32_t kBfaCrc = 0x683b71a1u;

/// One tenant whose numeric fields are `base + 1 ...`, in member order.
inline TenantStats tenant(std::string name, StreamKind kind,
                          std::uint64_t base, bool admission) {
  const auto b = static_cast<std::int64_t>(base);
  return {.name = std::move(name),
          .kind = kind,
          .issued = base + 1,
          .granted = base + 2,
          .denied = base + 3,
          .rejected_enqueues = base + 4,
          .reads = base + 5,
          .writes = base + 6,
          .hammer_acts = base + 7,
          .row_hits = base + 8,
          .data_bytes = base + 9,
          .service_time = b + 10,
          .queue_latency = dl::traffic::LatencyHistogram::fold(
              {b + 11, b + 12, b + 12, b + 13, b + 13, b + 13}),
          .admission = admission,
          .retried = base + 14,
          .shed = base + 15,
          .failed = base + 16,
          .deadline_misses = base + 17};
}

inline dl::scenario::HammerCampaignResult hammer() {
  return {
      .name = "pin/hammer",
      .status = dl::scenario::CampaignStatus::kTruncated,
      .error = {},
      .completed_cycles = 3,
      .attack = {.granted_acts = 101,
                 .denied_acts = 102,
                 .flips_in_victim = 103,
                 .flips_elsewhere = 104,
                 .elapsed = 105},
      .tracker = {.observed_acts = 111,
                  .mitigations = 112,
                  .victim_refreshes = 113},
      .locker = {.rw_instructions = 121,
                 .denied = 122,
                 .unlock_swaps = 123,
                 .relocks = 124,
                 .swap_copy_errors = 125,
                 .pool_exhausted_denials = 126,
                 .swap_budget_denials = 127,
                 .degraded_locks = 128,
                 .degraded_swaps = 129,
                 .fallback_refreshes = 130},
      .swaps = 131,
      .unswaps = 132,
      .degraded_migrations = 133,
      .rowclones = 134,
      .total_flips = 135,
      .locked_rows = 136,
      .defense_time = 137'000,
      .elapsed = 138'000'000,
      .tenants = {tenant("pin-attacker", StreamKind::kHammer, 140, true)},
      .integrity_enabled = true,
      .integrity_config = {.scheme = dl::integrity::Scheme::kAdditive,
                           .group_size = 160,
                           .recovery = dl::integrity::Recovery::kCorrect},
      .integrity = {.passes = 161,
                    .scrub_reads = 162,
                    .scrub_read_bytes = 163,
                    .denied_accesses = 164,
                    .correction_writes = 165,
                    .verified_groups = 166,
                    .detections = 167,
                    .corrected_bits = 168,
                    .zeroed_groups = 169,
                    .zeroed_corrupt_bytes = 170,
                    .checksum_repairs = 171,
                    .uncorrectable = 172,
                    .unrecoverable_faults = 173,
                    .first_detection_at = 174},
      .integrity_audit = {.corrupt_bytes = 175, .missed_bytes = 176},
      .faults_enabled = true,
      .faults = {.events = 181,
                 .retention_faults = 182,
                 .transient_faults = 183,
                 .stuck_cells = 184,
                 .stuck_overrides = 185,
                 .lock_evictions = 186,
                 .remap_faults = 187,
                 .checksum_faults = 188},
      .degraded = true,
      .fabric_channels = 2,
      .channels = {{.granted_acts = 201,
                    .denied_acts = 202,
                    .flips_in_victim = 203,
                    .flips_elsewhere = 204,
                    .rowclones = 205,
                    .total_flips = 206,
                    .serviced = 207,
                    .defense_time = 208,
                    .elapsed = 209},
                   {.granted_acts = 211,
                    .denied_acts = 212,
                    .flips_in_victim = 213,
                    .flips_elsewhere = 214,
                    .rowclones = 215,
                    .total_flips = 216,
                    .serviced = 217,
                    .defense_time = 218,
                    .elapsed = 219}},
      .timed = true,
      .refresh = {.refs_issued = 221,
                  .ref_busy_ps = 222,
                  .max_ref_slip_ps = 223},
      .resilience_enabled = true,
      .resilience = {.strikes = 231,
                     .retired_rows = 232,
                     .spares_total = 233,
                     .spares_remaining = 234,
                     .remap_reads = 235,
                     .rematerialized_bytes = 236,
                     .retires_denied = 237},
  };
}

inline dl::traffic::TrafficReport traffic_report(std::uint64_t base) {
  return {.tenants = {tenant("pin-web", StreamKind::kSynthetic, base, true),
                      tenant("scrub", StreamKind::kScrub, base + 20, false)},
          .serviced = base + 41,
          .elapsed = static_cast<std::int64_t>(base) + 42'000};
}

inline dl::scenario::ServeCampaignResult serve() {
  return {
      .name = "pin/serve",
      .error = {},
      .fabric_channels = 2,
      .completed_rounds = 301,
      .merged = traffic_report(400),
      .per_channel = {traffic_report(500), traffic_report(600)},
      .locker = {.rw_instructions = 701,
                 .denied = 702,
                 .unlock_swaps = 703,
                 .relocks = 704,
                 .swap_copy_errors = 705,
                 .pool_exhausted_denials = 706,
                 .swap_budget_denials = 707,
                 .degraded_locks = 708,
                 .degraded_swaps = 709,
                 .fallback_refreshes = 710},
      .locked_rows = 711,
      .defense_time = 712,
      .integrity_enabled = true,
      .integrity_config = {.scheme = dl::integrity::Scheme::kParity2D,
                           .group_size = 720,
                           .recovery = dl::integrity::Recovery::kDetectOnly},
      .integrity = {.passes = 721,
                    .scrub_reads = 722,
                    .scrub_read_bytes = 723,
                    .denied_accesses = 724,
                    .correction_writes = 725,
                    .verified_groups = 726,
                    .detections = 727,
                    .corrected_bits = 728,
                    .zeroed_groups = 729,
                    .zeroed_corrupt_bytes = 730,
                    .checksum_repairs = 731,
                    .uncorrectable = 732,
                    .unrecoverable_faults = 733,
                    .first_detection_at = 734},
      .integrity_audit = {.corrupt_bytes = 735, .missed_bytes = 736},
      .faults_enabled = true,
      .faults = {.events = 741,
                 .retention_faults = 742,
                 .transient_faults = 743,
                 .stuck_cells = 744,
                 .stuck_overrides = 745,
                 .lock_evictions = 746,
                 .remap_faults = 747,
                 .checksum_faults = 748},
      .degraded = true,
      .timed = true,
      .refresh = {.refs_issued = 751,
                  .ref_busy_ps = 752,
                  .max_ref_slip_ps = 753},
      .resilience_enabled = true,
      .resilience = {.strikes = 761,
                     .retired_rows = 762,
                     .spares_total = 763,
                     .spares_remaining = 764,
                     .remap_reads = 765,
                     .rematerialized_bytes = 766,
                     .retires_denied = 767},
      .channel_health = {dl::resilience::ChannelHealth::kDegraded,
                         dl::resilience::ChannelHealth::kOffline},
      .chaos_enabled = true,
      .availability = {.offered = 771,
                       .served = 772,
                       .shed = 773,
                       .failed = 774,
                       .redirected = 775,
                       .time_in_degraded = 776,
                       .first_fault_at = 777,
                       .restored_at = 778,
                       .mttr = 779,
                       .restored = true},
  };
}

inline dl::scenario::BfaCampaignResult bfa() {
  return {
      .name = "pin/bfa",
      .error = {},
      .accuracy = {0.875, 0.625, 0.5},
      .flips_landed = 801,
      .flips_blocked = 802,
      .gate_attempts = 803,
      .gate_landed = 804,
      .test_accuracy_after = 0.375,
      .integrity_enabled = true,
      .integrity_config = {.scheme = dl::integrity::Scheme::kAdditive,
                           .group_size = 810,
                           .recovery = dl::integrity::Recovery::kCorrectOrZero},
      .integrity = {.verified_groups = 811,
                    .detections = 812,
                    .corrected_bits = 813,
                    .zeroed_groups = 814,
                    .zeroed_corrupt_bytes = 815,
                    .checksum_repairs = 816,
                    .uncorrectable = 817},
      .integrity_audit = {.corrupt_bytes = 818, .missed_bytes = 819},
      .accuracy_before_recovery = 0.25,
      .recovered_accuracy = 0.8125,
  };
}

}  // namespace schema_pins
