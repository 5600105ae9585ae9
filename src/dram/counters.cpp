// dl-lint: hot-path — counters go through dram::Counter, not StatSet::add.
#include "dram/counters.hpp"

namespace dl::dram {

const char* to_string(Counter c) {
  switch (c) {
    case Counter::kRowHits:             return "row_hits";
    case Counter::kRowMisses:           return "row_misses";
    case Counter::kActivates:           return "activates";
    case Counter::kPrecharges:          return "precharges";
    case Counter::kReads:               return "reads";
    case Counter::kWrites:              return "writes";
    case Counter::kHammerActs:          return "hammer_acts";
    case Counter::kDeniedAccesses:      return "denied_accesses";
    case Counter::kRowClones:           return "rowclones";
    case Counter::kRowCloneCorruptions: return "rowclone_corruptions";
    case Counter::kTargetedRefreshes:   return "targeted_refreshes";
    case Counter::kAutoRefreshTimePs:   return "auto_refresh_time_ps";
    case Counter::kSequencerPrograms:   return "sequencer_programs";
    case Counter::kChannelSwaps:        return "channel_swaps";
    case Counter::kScrubChunkVerifies:  return "scrub_chunk_verifies";
    case Counter::kRejectedEnqueues:    return "rejected_enqueues";
    case Counter::kFaultEvents:         return "fault_events";
    case Counter::kDegradedLocks:       return "degraded_locks";
    case Counter::kDegradedSwaps:       return "degraded_swaps";
    case Counter::kAutoRefreshes:       return "auto_refreshes";
    case Counter::kRetiredRows:         return "retired_rows";
    case Counter::kRemapReads:          return "remap_reads";
  }
  return "?";
}

}  // namespace dl::dram
