// Typed hot-path counters for the DRAM controller.
//
// The controller bumps 3–6 counters per access; doing that through a
// string-keyed map (linear name lookup per add) dominated the access hot
// path.  CounterBlock is an enum-indexed array instead: one add per bump.
// to_string() names each counter for docs and tools.
//
// Defense and integrity mechanisms account the controller-level operation
// classes they originate (SWAP µprograms, channel swaps, scrub-chunk
// verifications) through the same enum, so campaign-level DRAM accounting
// has a single typed source of truth.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace dl::dram {

enum class Counter : std::uint8_t {
  // Controller-internal.
  kRowHits,
  kRowMisses,
  kActivates,
  kPrecharges,
  kReads,
  kWrites,
  kHammerActs,
  kDeniedAccesses,
  kRowClones,
  kRowCloneCorruptions,
  kTargetedRefreshes,
  kAutoRefreshTimePs,
  // Defense/integrity-originated operation classes.
  kSequencerPrograms,   ///< completed µprogram runs (defense::Sequencer)
  kChannelSwaps,        ///< RRS/SRS channel row swaps (defense::RowSwap)
  kScrubChunkVerifies,  ///< checksum-group verifications (integrity scrubber)
  // Robustness/resilience accounting.
  kRejectedEnqueues,    ///< FR-FCFS enqueues refused on a full bank ring
  kFaultEvents,         ///< injection events fired (faults::FaultInjector)
  kDegradedLocks,       ///< rows demoted to tracker-only fallback protection
  kDegradedSwaps,       ///< swap operations degraded to targeted refreshes
  // Timed-mode accounting.
  kAutoRefreshes,       ///< scheduled all-bank REFs issued by the TimingModel
  // Self-healing fabric (resilience layer; see src/resilience/).
  kRetiredRows,         ///< rows retired onto spares (resilience::RowRetirer)
  kRemapReads,          ///< physical activations landing in the spare slab
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kRemapReads) + 1;

/// The counter's name, as the ARCHITECTURE.md counter table lists it.
[[nodiscard]] const char* to_string(Counter c);

class CounterBlock {
 public:
  /// Adds `delta` to the counter; O(1), no allocation.
  void add(Counter c, double delta = 1.0) {
    values_[static_cast<std::size_t>(c)] += delta;
  }

  [[nodiscard]] double value(Counter c) const {
    return values_[static_cast<std::size_t>(c)];
  }

  void reset() { values_.fill(0.0); }

 private:
  std::array<double, kNumCounters> values_{};
};

}  // namespace dl::dram
