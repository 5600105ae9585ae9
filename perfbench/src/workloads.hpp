// The benchmark's four workloads.
//
// Each workload is a closed batch: one process issues a round of campaigns,
// waits for it to complete, and issues the next, until the measuring time
// is used up.  setup() runs before the timed phase; round() runs one batch
// and checks its simulated outputs.  The last round's results stay on the
// workload for the traced run's per-layer probes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "families.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {

/// Outcome of one round.
struct RoundResult {
  std::uint64_t ops = 0;        ///< units of work timed (see op_unit())
  std::uint64_t attempted = 0;  ///< campaigns plus output checks
  std::uint64_t failed = 0;     ///< campaigns not ok plus failed checks
  std::vector<std::string> failures;
  std::string report;           ///< simulated report JSON (deterministic)
  double report_s = 0.0;        ///< host time of report_json + dump
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// What one op is ("BFA iteration", "serviced request", "activation").
  [[nodiscard]] virtual const char* op_unit() const = 0;
  /// How many times setup() runs to give setup_s as a median.
  [[nodiscard]] virtual int setup_reps() const = 0;
  virtual void setup(Tracer& tracer) = 0;
  virtual RoundResult round(Tracer& tracer) = 0;
  /// Simulated end-to-end metrics of the last round (printed, not timed).
  virtual void sim_metrics(Metrics& out) const = 0;
};

class BfaWorkload final : public Workload {
 public:
  BfaWorkload(std::uint64_t seed, Size size);

  const char* op_unit() const override { return "BFA iteration"; }
  int setup_reps() const override { return 3; }
  void setup(Tracer& tracer) override;
  RoundResult round(Tracer& tracer) override;
  void sim_metrics(Metrics& out) const override;

  [[nodiscard]] Victim& victim() { return victim_; }
  [[nodiscard]] const std::vector<dl::scenario::BfaCampaign>& campaigns() const {
    return campaigns_;
  }
  [[nodiscard]] const std::vector<dl::scenario::BfaCampaignResult>& results()
      const {
    return results_;
  }
  /// Host seconds of every run_bfa call so far, and of the last fit().
  [[nodiscard]] const std::vector<double>& run_bfa_s() const {
    return run_bfa_s_;
  }
  [[nodiscard]] double fit_s() const { return fit_s_; }

 private:
  VictimConfig config_;
  std::vector<dl::scenario::BfaCampaign> campaigns_;
  Victim victim_;
  std::vector<dl::scenario::BfaCampaignResult> results_;
  std::vector<double> run_bfa_s_;
  double fit_s_ = 0.0;
};

/// `serve` and `chaos` share this class; only the campaign spec differs.
class ServeWorkload final : public Workload {
 public:
  /// `warmup` is a small campaign of the same kind that setup() runs.
  ServeWorkload(dl::scenario::ServeCampaign campaign,
                dl::scenario::ServeCampaign warmup);

  const char* op_unit() const override { return "serviced request"; }
  int setup_reps() const override { return 9; }
  void setup(Tracer& tracer) override;
  RoundResult round(Tracer& tracer) override;
  void sim_metrics(Metrics& out) const override;

  [[nodiscard]] const dl::scenario::ServeCampaign& campaign() const {
    return campaign_;
  }
  [[nodiscard]] const dl::scenario::ServeCampaignResult& result() const {
    return *result_;
  }
  [[nodiscard]] const std::vector<double>& run_serve_s() const {
    return run_serve_s_;
  }

 private:
  dl::scenario::ServeCampaign campaign_;
  dl::scenario::ServeCampaign warmup_;
  std::optional<dl::scenario::ServeCampaignResult> result_;
  std::vector<double> run_serve_s_;
};

class HammerWorkload final : public Workload {
 public:
  HammerWorkload(std::uint64_t seed, Size size);

  const char* op_unit() const override { return "activation"; }
  int setup_reps() const override { return 9; }
  void setup(Tracer& tracer) override;
  RoundResult round(Tracer& tracer) override;
  void sim_metrics(Metrics& out) const override;

  [[nodiscard]] const std::vector<dl::scenario::HammerCampaign>& cells() const {
    return cells_;
  }
  [[nodiscard]] const std::vector<dl::scenario::HammerCampaignResult>& results()
      const {
    return results_;
  }
  [[nodiscard]] const std::vector<double>& run_s() const { return run_s_; }

 private:
  std::uint64_t seed_;
  Size size_;
  std::vector<dl::scenario::HammerCampaign> cells_;
  std::vector<dl::scenario::HammerCampaignResult> results_;
  std::vector<double> run_s_;
};

/// "bfa", "serve", "chaos" or "hammer"; nullptr for anything else.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      Size size);

}  // namespace perfbench
