// RowHammer disturbance model.
//
// Standard activation-counting abstraction (as used by Ramulator-class
// simulators): each activation of a physical row adds disturbance to its
// neighbours with a distance-dependent weight; when a victim's accumulated
// disturbance within one refresh window crosses the generation's RowHammer
// threshold T_RH, bits flip in that row.  Refreshing a row (explicitly or by
// the auto-refresh window) clears its accumulation.
//
// Accumulators live in one page of rows_per_subarray doubles per subarray
// (neighbours never cross a subarray), allocated on the subarray's first
// activation.  Each page carries the refresh window it was last written in:
// a window boundary only bumps the model's window number, and a page from an
// older window reads as zero and is cleared on its next activation.  Memory
// is one 16-byte header per subarray plus one page per touched subarray.
//
// Blast radius follows the threat model of the paper: distance-1 victims
// take full disturbance; distance-2 victims take a configurable fraction
// (Half-Double-style coupling, Kogler et al. USENIX Sec'22).
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "dram/controller.hpp"
#include "dram/types.hpp"

namespace dl::rowhammer {

/// Physics knobs of the disturbance model.
struct DisturbanceConfig {
  std::uint64_t t_rh = 10000;    ///< activations to flip a distance-1 victim
  double distance2_weight = 0.2; ///< Half-Double coupling (0 disables)
  unsigned max_flips_per_event = 1;  ///< bits flipped when threshold crossed
  bool deterministic_bits = false;   ///< victims flip bit 0 of byte 0 if true
};

/// Record of one injected fault.
struct FlipEvent {
  dl::dram::GlobalRowId victim_row = 0;
  std::uint32_t byte = 0;
  unsigned bit = 0;
  Picoseconds at = 0;
};

class DisturbanceModel final : public dl::dram::ActivationListener {
 public:
  DisturbanceModel(dl::dram::Controller& ctrl, DisturbanceConfig config,
                   dl::Rng rng);

  // ActivationListener:
  void on_activate(dl::dram::GlobalRowId physical_row, Picoseconds now) override;
  void on_refresh_window(Picoseconds now) override;
  void on_row_refresh(dl::dram::GlobalRowId physical_row) override;

  /// Accumulated disturbance of a row in the current window (0 for rows
  /// outside the geometry).
  [[nodiscard]] double disturbance(dl::dram::GlobalRowId row) const;

  /// All faults injected so far.
  [[nodiscard]] const std::vector<FlipEvent>& flips() const { return flips_; }

  /// Total flips injected (monotone counter, survives clear_flips()).
  [[nodiscard]] std::uint64_t total_flips() const { return total_flips_; }

  void clear_flips() { flips_.clear(); }

  /// Optional callback fired on every injected flip.
  void set_flip_callback(std::function<void(const FlipEvent&)> cb) {
    callback_ = std::move(cb);
  }

  /// Replaces the callback and returns the previous one (FlipCallbackScope).
  std::function<void(const FlipEvent&)> exchange_flip_callback(
      std::function<void(const FlipEvent&)> cb) {
    std::swap(cb, callback_);
    return cb;
  }

  [[nodiscard]] const DisturbanceConfig& config() const { return config_; }

 private:
  dl::dram::Controller& ctrl_;
  DisturbanceConfig config_;
  dl::Rng rng_;
  std::vector<FlipEvent> flips_;
  std::uint64_t total_flips_ = 0;
  std::function<void(const FlipEvent&)> callback_;

  /// One subarray's accumulators, valid while `window` equals window_.
  struct Page {
    static constexpr std::uint64_t kNever =
        std::numeric_limits<std::uint64_t>::max();
    std::unique_ptr<double[]> rows;  ///< null until first activated
    std::uint64_t window = kNever;
  };
  std::vector<Page> pages_;   ///< indexed by SubarrayRow::subarray
  std::uint64_t window_ = 0;  ///< refresh windows elapsed

  /// `row`'s accumulator when its page belongs to the current window, else
  /// null (untouched, stale or out-of-range rows all read as 0).
  [[nodiscard]] double* live_accumulator(dl::dram::GlobalRowId row) const;
  void inject_flips(dl::dram::GlobalRowId victim, Picoseconds now);
};

/// RAII flip-callback installer.  The disturbance model is shared between
/// attack drivers; installing through this scope guarantees the previous
/// callback is restored even when the protected region throws, so no stale
/// callback (with dangling captures) can outlive its stack frame.
class FlipCallbackScope {
 public:
  FlipCallbackScope(DisturbanceModel& model,
                    std::function<void(const FlipEvent&)> cb)
      : model_(model),
        previous_(model.exchange_flip_callback(std::move(cb))) {}
  ~FlipCallbackScope() { model_.set_flip_callback(std::move(previous_)); }
  FlipCallbackScope(const FlipCallbackScope&) = delete;
  FlipCallbackScope& operator=(const FlipCallbackScope&) = delete;

 private:
  DisturbanceModel& model_;
  std::function<void(const FlipEvent&)> previous_;
};

}  // namespace dl::rowhammer
