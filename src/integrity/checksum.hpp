// Group checksums for run-time weight/row integrity (RADAR-style).
//
// RADAR (Li et al.) detects adversarial weight corruption by attaching a
// small checksum to every fixed-size group of weight bytes and verifying
// groups at run time.  Two schemes are modelled:
//
//   kParity2D — two-dimensional parity: one column-parity byte (bitwise XOR
//     of every data byte, 8 bits = one parity bit per bit position) plus one
//     row-parity bit per data byte (packed).  A single flipped data bit
//     shows up as exactly one column mismatch *and* one row mismatch, which
//     localizes the bit — the scheme both detects and *corrects* single-bit
//     faults, and distinguishes a corrupted checksum (one side mismatching)
//     from corrupted data.  Overhead: 1 + ceil(group_size/8) bytes/group.
//
//   kAdditive — 16-bit additive checksum (sum of data bytes mod 2^16).
//     Detects any single flip (a bit flip changes one byte by ±2^b ≠ 0
//     mod 2^16) at 2 bytes/group, but cannot localize the fault and cannot
//     tell a corrupted checksum from corrupted data — every mismatch is
//     kUncorrectable and recovery must fall back to group zero-out.
//
// Known blind spots (exercised by tests): flips that cancel — kParity2D
// misses a "rectangle" of four flips (two bytes × two shared bit
// positions); kAdditive misses +2^b/−2^b pairs.  These are the scheme's
// false negatives and are reported by the audit paths of the consumers.
//
// The checksum *storage itself* is part of the attack surface: it lives in
// the same memory as the data it guards, so BlockChecksums exposes its
// bytes for fault injection (flip_checksum_bit) exactly like weight words.
//
// Thread safety: none — a BlockChecksums instance is owned and mutated by
// one campaign/verifier at a time.  All operations are deterministic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/fields.hpp"

namespace dl::integrity {

enum class Scheme : std::uint8_t { kParity2D, kAdditive };

[[nodiscard]] const char* to_string(Scheme scheme);

/// What a verifier does with a detected fault.
enum class Recovery : std::uint8_t {
  kDetectOnly,     ///< count it, leave the corruption in place
  kCorrect,        ///< fix correctable single-bit faults, leave the rest
  kCorrectOrZero,  ///< fix what is correctable, zero out the rest (RADAR's
                   ///< accuracy-recovery fallback: a zeroed weight group
                   ///< costs far less accuracy than an adversarial flip)
};

[[nodiscard]] const char* to_string(Recovery recovery);

/// Declarative checksum configuration, shared by every integrity consumer
/// (weight-space verifier, DRAM scrubber, scenario specs).
struct Config {
  Scheme scheme = Scheme::kParity2D;
  std::uint32_t group_size = 64;  ///< data bytes per checksummed group
  Recovery recovery = Recovery::kCorrectOrZero;
};

/// Ground-truth corruption census produced by the consumers' audit()
/// probes: every byte differing from the clean snapshot, split by whether
/// its group's checksum currently detects it.  missed_bytes are the false
/// negatives — corruption sitting in groups that verify clean.
struct Audit {
  std::uint64_t corrupt_bytes = 0;
  std::uint64_t missed_bytes = 0;

  template <typename F>
  static void fields(F&& f) {
    f({"corrupt_bytes", "residual_corrupt_bytes"}, &Audit::corrupt_bytes);
    f({"missed_bytes", "missed_corrupt_bytes"}, &Audit::missed_bytes);
  }
};

/// Share of the corruption that ever reached the guarded data which the
/// checksums caught, in consistent byte units: recovered faults
/// (corrected single-bit faults ≙ one byte each, plus the bytes that were
/// actually corrupt in zeroed-out groups) and still-present-but-flagged
/// bytes, over all of that plus the audit's false negatives.  1.0 when
/// nothing was ever corrupted.  Single source of the "detection_rate"
/// figure in JSON reports and bench tables.
[[nodiscard]] double detection_rate(std::uint64_t corrected_bits,
                                    std::uint64_t zeroed_corrupt_bytes,
                                    const Audit& audit);

/// Outcome of checking one group against its stored checksum.
struct Diagnosis {
  enum class State : std::uint8_t {
    kClean,           ///< checksum matches the data
    kCorrectable,     ///< single-bit data fault at (byte, bit)
    kChecksumCorrupt, ///< the stored checksum itself is faulty; data is fine
    kUncorrectable,   ///< detected fault that cannot be localized
  };
  State state = State::kClean;
  std::uint32_t byte = 0;  ///< kCorrectable: offset within the group
  unsigned bit = 0;        ///< kCorrectable: bit position (0 = LSB)
};

/// Checksum store for one contiguous byte image, chopped into groups of
/// `config.group_size` bytes (the final group may be shorter).  The store
/// only holds checksums — callers pass the live data spans to diagnose()
/// so the same store can guard weight arrays or DRAM row contents.
class BlockChecksums {
 public:
  /// Builds checksums of every group from `image` (assumed clean).
  BlockChecksums(const Config& config, std::span<const std::uint8_t> image);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t image_bytes() const { return image_bytes_; }
  [[nodiscard]] std::size_t group_count() const { return groups_; }

  /// [offset, length) of group `g` within the guarded image.
  [[nodiscard]] std::pair<std::size_t, std::size_t> group_range(
      std::size_t g) const;

  /// Checksum storage overhead per group / total, in bytes.
  [[nodiscard]] std::size_t bytes_per_group() const { return stride_; }
  [[nodiscard]] std::size_t storage_bytes() const { return store_.size(); }

  /// Checks group `g` against `data` (the group's current bytes, length
  /// exactly group_range(g).second).
  [[nodiscard]] Diagnosis diagnose(std::size_t g,
                                   std::span<const std::uint8_t> data) const;

  /// Recomputes group `g`'s checksum from `data` (after a repair, a
  /// zero-out, or a legitimate weight update).
  void rebuild(std::size_t g, std::span<const std::uint8_t> data);

  // -- attack surface ---------------------------------------------------------
  // The checksum bytes are as attackable as the data they guard.

  [[nodiscard]] std::uint8_t checksum_byte(std::size_t g,
                                           std::size_t byte) const;
  void flip_checksum_bit(std::size_t g, std::size_t byte, unsigned bit);

 private:
  Config config_;
  std::size_t image_bytes_ = 0;
  std::size_t groups_ = 0;
  std::size_t stride_ = 0;          ///< stored bytes per group
  std::vector<std::uint8_t> store_; ///< group-major checksum bytes

  [[nodiscard]] std::span<const std::uint8_t> stored(std::size_t g) const;
  [[nodiscard]] std::span<std::uint8_t> stored(std::size_t g);
  void compute(std::span<const std::uint8_t> data,
               std::span<std::uint8_t> out) const;
};

}  // namespace dl::integrity
