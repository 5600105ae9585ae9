// DRAM-row integrity scrubber (the RADAR-style defense, memory face).
//
// Guards a set of logical DRAM rows (e.g. the rows a weight image
// occupies): at construction it snapshots their contents (boot-time
// registration — reads the backing store directly, not the accounted
// command path) and builds group checksums over each row.  Afterwards
// *every* scrub access flows through dram::Controller, so scrub bandwidth,
// gate denials, and the latency cost land on the accounted path:
//
//   scrub_pass() — eager scrubbing: reads every group of every guarded row
//     through ctrl.read() inside a DefenseScope (the time is charged as
//     defense overhead) and verifies/recovers each group.
//
//   on_read()    — traffic-engine wiring: when a campaign runs the
//     multi-tenant engine, a kScrub tenant stream issues the scrub reads
//     and the engine's data sink forwards the serviced bytes here, so the
//     scrubber contends for banks like any other tenant and its bandwidth
//     shows up in per-tenant stats.  Chunks must be group-aligned (the
//     kScrub stream guarantees this); reads of unguarded rows are ignored.
//
// Recovery writes (bit corrections, group zero-outs) go through
// ctrl.write() inside a DefenseScope.  Scrub traffic is privileged
// (can_unlock = true): the scrubber models an OS/driver service with
// DRAM-Locker ISA support.  Like RADAR, detection is only as fresh as the
// scrub cadence — flips that land between passes linger (detection
// latency), and checksum blind spots (see checksum.hpp) are missed
// entirely; audit() measures both against the snapshot ground truth.
//
// Thread safety: none — a scrubber belongs to one campaign's controller.
// Fully deterministic: fixed row/group walk, no randomness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "dram/controller.hpp"
#include "integrity/checksum.hpp"

namespace dl::integrity {

/// Scrub-side counters (DRAM face).  Extends the weight-space Stats shape
/// with traffic accounting; kept separate because the units differ (reads
/// through a memory controller vs in-place word checks).
struct ScrubStats {
  std::uint64_t passes = 0;             ///< completed scrub_pass() sweeps
  std::uint64_t scrub_reads = 0;        ///< read requests issued/observed
  std::uint64_t scrub_read_bytes = 0;
  std::uint64_t denied_accesses = 0;    ///< reads/writes the gate denied
  std::uint64_t correction_writes = 0;  ///< recovery writes issued
  std::uint64_t verified_groups = 0;
  std::uint64_t detections = 0;
  std::uint64_t corrected_bits = 0;
  std::uint64_t zeroed_groups = 0;
  /// Bytes that actually differed from the snapshot inside zeroed-out
  /// groups (same byte units as the audit; feeds detection_rate()).
  std::uint64_t zeroed_corrupt_bytes = 0;
  std::uint64_t checksum_repairs = 0;
  std::uint64_t uncorrectable = 0;
  /// Detected corruption left standing because the recovery write itself
  /// was denied — the correct-or-zero ladder ran out of rungs.  Disjoint
  /// from `uncorrectable` (recovery not attempted by policy).
  std::uint64_t unrecoverable_faults = 0;
  Picoseconds first_detection_at = 0;   ///< controller clock; 0 = none yet

  /// Report order: sweep accounting, then the outcome counters it shares
  /// with the weight-space Stats.
  template <typename F>
  static void fields(F&& f) {
    f({"passes"}, &ScrubStats::passes);
    f({"scrub_reads"}, &ScrubStats::scrub_reads);
    f({"scrub_read_bytes"}, &ScrubStats::scrub_read_bytes);
    f({"denied_accesses"}, &ScrubStats::denied_accesses);
    f({"unrecoverable_faults"}, &ScrubStats::unrecoverable_faults);
    f({"correction_writes"}, &ScrubStats::correction_writes);
    f({"first_detection_at", "first_detection_ps", Merge::kMinNonzero}, &ScrubStats::first_detection_at);
    f({"verified_groups"}, &ScrubStats::verified_groups);
    f({"detections"}, &ScrubStats::detections);
    f({"corrected_bits"}, &ScrubStats::corrected_bits);
    f({"zeroed_groups"}, &ScrubStats::zeroed_groups);
    f({"zeroed_corrupt_bytes"}, &ScrubStats::zeroed_corrupt_bytes);
    f({"checksum_repairs"}, &ScrubStats::checksum_repairs);
    f({"uncorrectable"}, &ScrubStats::uncorrectable);
  }
};

class DramScrubber {
 public:
  /// Registers `rows` (logical global row ids) for scrubbing.  Requires
  /// config.group_size to divide the geometry's row_bytes so groups tile
  /// rows exactly (scrub chunks never straddle a row boundary).
  DramScrubber(dl::dram::Controller& ctrl,
               std::vector<dl::dram::GlobalRowId> rows, const Config& config);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const std::vector<dl::dram::GlobalRowId>& rows() const {
    return rows_;
  }
  [[nodiscard]] const ScrubStats& stats() const { return stats_; }

  /// Bytes per scrub read (= one checksum group).
  [[nodiscard]] std::uint32_t chunk_bytes() const {
    return config_.group_size;
  }

  /// Scrub reads needed for one full sweep of every guarded row (the
  /// request budget of a kScrub tenant stream issuing one pass).
  [[nodiscard]] std::uint64_t chunks_per_pass() const;

  /// One eager sweep: read + verify + recover every group of every guarded
  /// row through the controller, inside a DefenseScope.
  void scrub_pass();

  /// Engine-mode bookkeeping: records that a kScrub tenant completed one
  /// full sweep (the reads themselves arrived via on_read()).
  void count_pass() { ++stats_.passes; }

  /// Traffic-engine data sink: verify the group covered by a serviced
  /// scrub read.  `addr` is the request's physical address; `data` the
  /// bytes returned.  Non-guarded rows and unaligned chunks are ignored.
  void on_read(dl::dram::PhysAddr addr, std::span<const std::uint8_t> data);

  /// Ground truth: reads the guarded rows' current contents from the
  /// backing store (through the row indirection, free of charge) and
  /// reports surviving corruption split into detected vs missed.
  [[nodiscard]] Audit audit() const;

  /// Attack surface: the checksum store (groups are row-major — row index
  /// * groups_per_row + group-in-row).
  [[nodiscard]] BlockChecksums& checksums() { return *checksums_; }

  /// Called on every uncorrectable diagnosis with the guarded row's
  /// *logical* id and the controller clock.  The resilience layer's
  /// RowRetirer subscribes here to accumulate retirement strikes.
  using FaultObserver =
      std::function<void(dl::dram::GlobalRowId logical_row, Picoseconds now)>;
  void set_fault_observer(FaultObserver fn) { fault_observer_ = std::move(fn); }

  /// Copies the pristine snapshot bytes of logical row `row` into `out`
  /// (resized to row_bytes).  Returns false when `row` is not guarded —
  /// the re-materialization source for retired rows.
  bool snapshot_row(dl::dram::GlobalRowId row,
                    std::vector<std::uint8_t>& out) const;

 private:
  dl::dram::Controller& ctrl_;
  Config config_;
  std::vector<dl::dram::GlobalRowId> rows_;
  std::unordered_map<dl::dram::GlobalRowId, std::size_t> row_index_;
  std::size_t groups_per_row_ = 0;
  /// One checksum store over the concatenated row image (rows_ order).
  std::unique_ptr<BlockChecksums> checksums_;
  std::vector<std::uint8_t> snapshot_;  ///< clean row contents, concatenated
  ScrubStats stats_;
  FaultObserver fault_observer_;  ///< resilience strike path; may be empty

  [[nodiscard]] dl::dram::PhysAddr addr_of(std::size_t row_idx,
                                           std::uint32_t byte) const;
  /// Reads row `row_idx`'s current bytes from the backing store (ground
  /// truth, unaccounted).
  void store_row(std::size_t row_idx, std::span<std::uint8_t> out) const;
  void verify_group(std::size_t row_idx, std::size_t group_in_row,
                    std::span<const std::uint8_t> data);
};

}  // namespace dl::integrity
