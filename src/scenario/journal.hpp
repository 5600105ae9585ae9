// Campaign checkpoint journal: crash-safe resume for scenario matrices.
//
// A long matrix run (hundreds of campaigns × minutes each) should not lose
// everything to a SIGKILL, an OOM, or a CI timeout.  CampaignJournal turns
// each finished campaign into one append-only JSONL line; re-running the
// same matrix with the same journal skips every campaign whose result is
// already on disk and replays the cached result into the final report.
// Because the journal stores the *result structs* (not rendered reports)
// and every numeric field round-trips exactly — integers as JSON integers,
// BFA accuracy doubles as C99 hexfloat strings — an interrupted-and-resumed
// run produces a final report byte-identical to an uninterrupted one.
//
// Journal format (docs/ARCHITECTURE.md "Failure model & recovery"):
//   one JSON object per line, {"kind":"hammer"|"bfa"|"serve","name":...,...},
//   followed by a tab-separated CRC32 trailer ("\t#crc32:xxxxxxxx") over the
//   JSON text.  Lines are self-contained; a torn tail line (the process died
//   mid-write) fails its CRC or its parse and is skipped on load, losing
//   only that campaign (the next append starts a fresh line).  Inside each
//   stats block the keys are the struct's member names, written and read
//   through its field table (common/fields.hpp).  A line whose CRC trailer
//   mismatches (mid-file bit rot, not just a torn tail) is skipped with a
//   warning on stderr.  Lines without a trailer (journals from older
//   releases) fall back to parse-or-skip.  Duplicate names resolve
//   last-wins, so a re-run that re-records a campaign simply supersedes the
//   older line.  Failed campaigns are journaled too: a deterministic
//   failure is not worth re-running, and a resumed report must list the
//   same "failed" entries as an uninterrupted one.
//
// Thread safety: record() is mutex-guarded (run_journaled fans campaigns
// out over the pool); lookups are read-only after construction.
#pragma once

#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "scenario/scenario.hpp"

namespace dl::scenario {

class CampaignJournal {
 public:
  /// Loads every parsable line of `path` (missing file = empty journal)
  /// and opens the file for appending.
  explicit CampaignJournal(std::string path);
  ~CampaignJournal();
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Results restored from disk at construction.
  [[nodiscard]] std::size_t loaded() const { return loaded_; }

  /// Lines whose CRC32 trailer mismatched at load (skipped with a warning).
  [[nodiscard]] std::size_t crc_mismatches() const { return crc_mismatches_; }

  /// Cached result for a campaign name; nullptr when not journaled yet.
  [[nodiscard]] const HammerCampaignResult* find_hammer(
      const std::string& name) const;
  [[nodiscard]] const BfaCampaignResult* find_bfa(
      const std::string& name) const;
  [[nodiscard]] const ServeCampaignResult* find_serve(
      const std::string& name) const;

  /// Appends one journal line (JSON + CRC32 trailer) and flushes it to disk.
  void record(const HammerCampaignResult& r);
  void record(const BfaCampaignResult& r);
  void record(const ServeCampaignResult& r);

 private:
  std::string path_;
  std::FILE* out_ = nullptr;
  std::mutex mu_;  ///< serializes appends from pool workers
  std::unordered_map<std::string, HammerCampaignResult> hammer_;
  std::unordered_map<std::string, BfaCampaignResult> bfa_;
  std::unordered_map<std::string, ServeCampaignResult> serve_;
  std::size_t loaded_ = 0;
  std::size_t crc_mismatches_ = 0;

  void append_line(const std::string& line);
};

/// run() with checkpointing: campaigns whose names are already journaled
/// return their cached results (no re-run); the rest run error-isolated
/// over the pool, each recorded as it finishes.  Results are ordered like
/// the input and bit-identical for any DL_THREADS value, with or without
/// an interruption in between.
[[nodiscard]] std::vector<HammerCampaignResult> run_journaled(
    const std::vector<HammerCampaign>& campaigns, CampaignJournal& journal);

/// Serial BFA counterpart of run_journaled (campaigns share the victim's
/// mutable weights).  Restores the victim's weights before returning.
[[nodiscard]] std::vector<BfaCampaignResult> run_bfa_journaled(
    const VictimRef& victim, const std::vector<BfaCampaign>& campaigns,
    CampaignJournal& journal);

/// Serving counterpart of run_journaled: cached serve campaigns replay from
/// the journal, the rest run error-isolated over the pool.  Chaos campaigns
/// resume byte-identically — the availability block and channel health are
/// journaled alongside the traffic reports.
[[nodiscard]] std::vector<ServeCampaignResult> run_serve_journaled(
    const std::vector<ServeCampaign>& campaigns, CampaignJournal& journal);

}  // namespace dl::scenario
