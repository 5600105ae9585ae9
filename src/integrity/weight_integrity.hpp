// Run-time weight-integrity verification over a QuantizedModel (the
// RADAR-style reactive defense, weight-space face).
//
// At construction the verifier snapshots every quantized layer's int8
// words (the clean state) and builds per-layer group checksums
// (checksum.hpp).  Verification then runs either
//
//   lazily  — attach() installs a Model pre-forward hook, so each layer's
//             weight groups are checked (and recovered) the moment
//             inference is about to consume them, or
//   eagerly — verify_layer()/verify_all() on whatever schedule the caller
//             drives (the scenario engine verifies every N BFA iterations).
//
// Recovery follows Config::recovery: correctable single-bit faults are
// flipped back in place; uncorrectable groups are zeroed out (RADAR's
// accuracy-recovery fallback — the caller measures the accuracy delta);
// corrupted checksums are rebuilt from the (clean) data.  A zeroed group
// updates the clean snapshot, so audit() reports only *unrecovered*
// corruption.
//
// audit() is the ground-truth probe: it compares the live weights against
// the snapshot and classifies every differing byte as detected (its group
// diagnoses non-clean) or missed (the group verifies clean — a checksum
// blind spot, i.e. a false negative).
//
// Thread safety: none — one verifier per model per campaign.  All
// operations are deterministic; nothing here draws randomness.
#pragma once

#include <cstdint>
#include <vector>

#include "integrity/checksum.hpp"
#include "nn/model.hpp"
#include "nn/quant.hpp"

namespace dl::integrity {

/// Verification / recovery counters (weight-space).
struct Stats {
  std::uint64_t verified_groups = 0;   ///< group checks performed
  std::uint64_t detections = 0;        ///< groups that diagnosed non-clean
  std::uint64_t corrected_bits = 0;    ///< single-bit faults flipped back
  std::uint64_t zeroed_groups = 0;     ///< uncorrectable groups zeroed out
  /// Bytes that actually differed from the snapshot inside zeroed-out
  /// groups — the corruption a sacrifice recovered, in the same byte
  /// units as the audit (feeds detection_rate()).
  std::uint64_t zeroed_corrupt_bytes = 0;
  std::uint64_t checksum_repairs = 0;  ///< corrupted checksums rebuilt
  std::uint64_t uncorrectable = 0;     ///< detected but left in place

  template <typename F>
  static void fields(F&& f) {
    f({"verified_groups"}, &Stats::verified_groups);
    f({"detections"}, &Stats::detections);
    f({"corrected_bits"}, &Stats::corrected_bits);
    f({"zeroed_groups"}, &Stats::zeroed_groups);
    f({"zeroed_corrupt_bytes"}, &Stats::zeroed_corrupt_bytes);
    f({"checksum_repairs"}, &Stats::checksum_repairs);
    f({"uncorrectable"}, &Stats::uncorrectable);
  }
};

class WeightIntegrity {
 public:
  /// Snapshots and checksums the model's *current* quantized state (call
  /// after QuantizedModel::restore() / training, before any attack).
  WeightIntegrity(dl::nn::QuantizedModel& qmodel, const Config& config);
  ~WeightIntegrity();

  WeightIntegrity(const WeightIntegrity&) = delete;
  WeightIntegrity& operator=(const WeightIntegrity&) = delete;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Total checksum storage overhead across all layers, in bytes.
  [[nodiscard]] std::size_t storage_bytes() const;

  /// Verifies (and recovers, per Config::recovery) one quantized layer.
  void verify_layer(std::size_t layer);

  /// Verifies every quantized layer.
  void verify_all();

  /// Lazy mode: installs a pre-forward hook on `model` that verifies the
  /// quantized layers whose parameters the layer about to execute owns.
  /// The model must outlive this object or detach() must be called first.
  /// Replaces any previously installed forward hook.
  void attach(dl::nn::Model& model);

  /// Removes the hook installed by attach().
  void detach();

  /// Compares live weights against the clean snapshot; classifies
  /// differences as detected vs missed (false negatives).  Read-only.
  [[nodiscard]] Audit audit() const;

  /// Attack surface: the checksum store of one quantized layer (flip bits
  /// of it like weight bits).
  [[nodiscard]] BlockChecksums& layer_checksums(std::size_t layer) {
    return checksums_.at(layer);
  }

 private:
  dl::nn::QuantizedModel& qmodel_;
  Config config_;
  Stats stats_;
  std::vector<BlockChecksums> checksums_;             ///< per quantized layer
  std::vector<std::vector<std::uint8_t>> snapshot_;   ///< clean int8 words
  dl::nn::Model* attached_ = nullptr;

  /// The current bytes of quantized layer `l` (int8 words viewed as u8).
  [[nodiscard]] std::span<const std::uint8_t> layer_bytes(std::size_t l) const;
};

}  // namespace dl::integrity
