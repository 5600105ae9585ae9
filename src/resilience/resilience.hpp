// Self-healing resilience layer: row retirement onto a spare pool.
//
// DRAM-Locker (the source paper) keeps a victim DNN serving out of a
// protected DRAM; RADAR-style resilience is the complementary half — when
// permanent faults accumulate faster than the integrity layer can correct
// them, the fabric must *retire* the failing row, remap its logical address
// onto a healthy spare, and re-materialize the pristine contents from the
// integrity snapshot so the model keeps serving.
//
// Mechanism
//   Each channel reserves a slab of spare rows at the top of its local row
//   space (ResilienceSpec::spare_rows).  The integrity scrubber reports
//   every uncorrectable detection to the RowRetirer (a strike); when a row
//   collects `strike_threshold` strikes inside `strike_window_ps` of
//   protocol time, the retirer:
//     1. takes the next spare row sequentially from the slab,
//     2. swaps the victim's logical address onto it through the existing
//        RowIndirection (so schedulers/defenses see nothing but an epoch
//        bump, exactly like a DRAM-Locker unlock SWAP),
//     3. re-writes the row's pristine bytes — obtained from the scrubber's
//        boot snapshot via the re-materializer callback — through the
//        controller inside a DefenseScope, so the recovery traffic is
//        accounted as defense overhead.
//   A channel whose slab runs dry reports exhausted(); the scenario layer
//   degrades the channel's health and (under chaos campaigns) fails it
//   over — see docs/ARCHITECTURE.md "Failure model & recovery".
//
// Determinism: the retirer is driven synchronously from the scrubber's
// verify ladder and uses no randomness; spares are consumed in slab order.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/fields.hpp"
#include "common/units.hpp"
#include "dram/controller.hpp"
#include "dram/types.hpp"

namespace dl::resilience {

/// Per-channel health rung of the retire→remap→failover→shed ladder.
enum class ChannelHealth : std::uint8_t {
  kHealthy,   ///< serving normally
  kDegraded,  ///< spare pool exhausted or fault rate over threshold
  kOffline,   ///< killed (chaos) — mirrored reads fail over, writes fail
};

[[nodiscard]] const char* to_string(ChannelHealth h);

/// Static policy for one channel's spare pool (on scenario::DramEnv).
struct ResilienceSpec {
  /// Rows reserved as spares at the top of the channel's local row space.
  /// 0 disables the retirer entirely (byte-identical to a pre-resilience
  /// run).
  std::uint32_t spare_rows = 0;
  /// Uncorrectable strikes on one row before it is retired.
  std::uint32_t strike_threshold = 3;
  /// Sliding window the strikes must land in; 0 = unbounded (strikes never
  /// expire).
  Picoseconds strike_window = 0;

  [[nodiscard]] bool enabled() const { return spare_rows > 0; }

  void validate(std::uint64_t total_rows) const;
};

/// Typed retirement statistics, merged channel-wise into campaign reports.
struct ResilienceStats {
  std::uint64_t strikes = 0;            ///< uncorrectable reports received
  std::uint64_t retired_rows = 0;       ///< rows remapped onto spares
  std::uint64_t spares_total = 0;       ///< slab size at construction
  std::uint64_t spares_remaining = 0;   ///< spares not yet consumed
  std::uint64_t remap_reads = 0;        ///< activations landing in the slab
  std::uint64_t rematerialized_bytes = 0;  ///< snapshot bytes re-written
  std::uint64_t retires_denied = 0;     ///< retirements refused (slab dry)

  template <typename F>
  static void fields(F&& f) {
    f({"strikes"}, &ResilienceStats::strikes);
    f({"retired_rows"}, &ResilienceStats::retired_rows);
    f({"spares_total"}, &ResilienceStats::spares_total);
    f({"spares_remaining"}, &ResilienceStats::spares_remaining);
    f({"remap_reads"}, &ResilienceStats::remap_reads);
    f({"rematerialized_bytes"}, &ResilienceStats::rematerialized_bytes);
    f({"retires_denied"}, &ResilienceStats::retires_denied);
  }
};

/// Retires repeatedly-uncorrectable rows onto the channel's spare slab.
///
/// Listens on physical activations only to count remap reads; the strike
/// path is driven explicitly by the integrity scrubber through
/// note_uncorrectable().
class RowRetirer : public dram::ActivationListener {
 public:
  /// Reads `row_bytes` pristine bytes of a logical row into `out`;
  /// returns false when no snapshot content is available for the row
  /// (the retirer then remaps without re-materializing).
  using Rematerializer =
      std::function<bool(dram::GlobalRowId logical, std::vector<std::uint8_t>& out)>;

  RowRetirer(dram::Controller& ctrl, const ResilienceSpec& spec);

  void set_rematerializer(Rematerializer fn) { rematerialize_ = std::move(fn); }

  /// One uncorrectable detection on `logical_row` at protocol time `now`.
  /// Returns true when this strike retired the row.
  bool note_uncorrectable(dram::GlobalRowId logical_row, Picoseconds now);

  // dram::ActivationListener
  void on_activate(dram::GlobalRowId physical_row, Picoseconds now) override;

  [[nodiscard]] const ResilienceSpec& spec() const { return spec_; }
  [[nodiscard]] const ResilienceStats& stats() const { return stats_; }

  /// True once every spare has been consumed (degradation trigger).
  [[nodiscard]] bool exhausted() const {
    return stats_.spares_total > 0 && stats_.spares_remaining == 0;
  }

  /// First logical row of the spare slab.
  [[nodiscard]] dram::GlobalRowId spare_base() const { return spare_base_; }

  /// True when `logical_row` has already been retired onto a spare.
  [[nodiscard]] bool retired(dram::GlobalRowId logical_row) const {
    return retired_.count(logical_row) != 0;
  }

 private:
  dram::Controller& ctrl_;
  ResilienceSpec spec_;
  ResilienceStats stats_;
  dram::GlobalRowId spare_base_ = 0;   ///< slab = [spare_base_, total_rows)
  std::uint64_t next_spare_ = 0;       ///< slab-relative next free spare
  bool retiring_ = false;              ///< re-entrancy guard
  Rematerializer rematerialize_;
  /// Strike timestamps per logical row (pruned to the sliding window).
  std::unordered_map<dram::GlobalRowId, std::vector<Picoseconds>> strikes_;
  std::unordered_map<dram::GlobalRowId, bool> retired_;

  void retire(dram::GlobalRowId logical_row);
};

}  // namespace dl::resilience
