#include "workloads.hpp"

#include <stdexcept>

#include "common/units.hpp"

namespace perfbench {

namespace ds = dl::scenario;

namespace {

/// Counts one output check into `r`.
void check(RoundResult& r, bool ok, const std::string& what) {
  ++r.attempted;
  if (!ok) {
    ++r.failed;
    r.failures.push_back(what);
  }
}

/// Counts one campaign into `r` (a campaign whose status is not ok fails).
void count_campaign(RoundResult& r, const std::string& name,
                    ds::CampaignStatus status, const std::string& error) {
  check(r, status == ds::CampaignStatus::kOk,
        name + " status " + ds::to_string(status) +
            (error.empty() ? "" : ": " + error));
}

/// Serializes the round's simulated report, timed as scenario.report_ms.
template <typename Fn>
void make_report(RoundResult& r, Tracer& tracer, Fn&& fn) {
  ScopedSpan s(tracer, "scenario", "report_json+dump");
  r.report_s = time_s([&] { r.report = fn(); });
}

const dl::traffic::TenantStats* tenant(const dl::traffic::TrafficReport& rep,
                                       const std::string& name) {
  for (const auto& t : rep.tenants) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------- bfa

BfaWorkload::BfaWorkload(std::uint64_t seed, Size size)
    : config_(victim_config(seed, size)),
      campaigns_(bfa_campaigns(seed, size)) {}

void BfaWorkload::setup(Tracer& tracer) {
  ScopedSpan span(tracer, "setup", "bfa victim");
  {
    ScopedSpan s(tracer, "nn", "make_synth_cifar+make_resnet20");
    victim_ = make_victim(config_);
  }
  dl::nn::SgdTrainer trainer(victim_.model, victim_sgd(config_),
                             dl::Rng(config_.seed + 4));
  {
    ScopedSpan s(tracer, "nn", "SgdTrainer::fit");
    fit_s_ = time_s([&] { trainer.fit(victim_.train); });
  }
  ScopedSpan s(tracer, "nn", "QuantizedModel+evaluate_accuracy");
  quantize_victim(victim_);
}

RoundResult BfaWorkload::round(Tracer& tracer) {
  const ds::VictimRef ref{victim_.model, *victim_.qmodel, victim_.sample,
                          victim_.clean_accuracy};
  RoundResult r;
  results_.clear();
  for (std::size_t i = 0; i < campaigns_.size(); ++i) {
    tracer.set_campaign(static_cast<int>(i) + 1);
    ScopedSpan s(tracer, "scenario", "run_bfa " + campaigns_[i].name);
    run_bfa_s_.push_back(
        time_s([&] { results_.push_back(ds::run_bfa(ref, campaigns_[i])); }));
  }
  tracer.set_campaign(0);
  victim_.qmodel->restore();

  for (const auto& res : results_) {
    count_campaign(r, res.name, res.status, res.error);
    if (!res.accuracy.empty()) r.ops += res.accuracy.size() - 1;
  }
  if (results_.size() == 3 && !results_[0].accuracy.empty() &&
      !results_[1].accuracy.empty()) {
    check(r, results_[2].flips_landed == 0,
          "deny-all campaign landed " +
              std::to_string(results_[2].flips_landed) + " flips");
    check(r, results_[1].accuracy.back() >= results_[0].accuracy.back(),
          "defended accuracy below the undefended campaign's");
  }
  check(r, victim_.clean_accuracy >= 0.5,
        "victim clean accuracy " + std::to_string(victim_.clean_accuracy) +
            " < 0.5: the victim did not learn");
  make_report(r, tracer, [&] {
    dl::json::Value report = ds::report_json({}, results_);
    report["clean_test_accuracy"] = victim_.clean_accuracy;
    return report.dump();
  });
  return r;
}

void BfaWorkload::sim_metrics(Metrics& out) const {
  out.set("clean_acc", victim_.clean_accuracy, "frac",
          std::to_string(victim_.test.size()) + " held-out images, int8");
  if (results_.size() != 3) return;
  out.set("undefended_acc", results_[0].accuracy.back(), "frac",
          std::to_string(results_[0].flips_landed) + " flips landed");
  out.set("defended_acc", results_[1].accuracy.back(), "frac",
          "residual gate p=0.096, " +
              std::to_string(results_[1].gate_landed) + " of " +
              std::to_string(results_[1].gate_attempts) + " offers landed");
  out.set("deny_all_acc", results_[2].accuracy.back(), "frac",
          std::to_string(results_[2].flips_blocked) + " flips blocked");
}

// ---------------------------------------------------------------- serve

ServeWorkload::ServeWorkload(ds::ServeCampaign campaign,
                             ds::ServeCampaign warmup)
    : campaign_(std::move(campaign)), warmup_(std::move(warmup)) {}

void ServeWorkload::setup(Tracer& tracer) {
  ScopedSpan span(tracer, "setup", "warm-up " + warmup_.name);
  const ds::ServeCampaignResult warm = ds::run_serve_isolated(warmup_);
  if (warm.status != ds::CampaignStatus::kOk) {
    throw std::runtime_error("warm-up campaign failed: " + warm.error);
  }
}

RoundResult ServeWorkload::round(Tracer& tracer) {
  result_.reset();  // keeps one campaign's latency samples alive, not two
  tracer.set_campaign(1);
  {
    ScopedSpan s(tracer, "scenario", "run_serve " + campaign_.name);
    run_serve_s_.push_back(
        time_s([&] { result_ = ds::run_serve_isolated(campaign_); }));
  }
  tracer.set_campaign(0);

  const ds::ServeCampaignResult& res = *result_;
  RoundResult r;
  count_campaign(r, res.name, res.status, res.error);
  r.ops = res.merged.serviced;
  const dl::traffic::TenantStats* weights = tenant(res.merged, "weights");
  check(r, weights != nullptr && !weights->queue_latency.empty(),
        "weights tenant recorded no latency samples");
  if (res.chaos_enabled) {
    const ds::AvailabilityStats& av = res.availability;
    check(r, av.offered == av.served + av.shed + av.failed,
          "request conservation: offered " + std::to_string(av.offered) +
              " != served " + std::to_string(av.served) + " + shed " +
              std::to_string(av.shed) + " + failed " +
              std::to_string(av.failed));
  } else {
    // Without admission control every declared request is serviced.
    bool all = res.merged.tenants.size() >= campaign_.traffic.tenants.size();
    for (std::size_t i = 0; all && i < campaign_.traffic.tenants.size(); ++i) {
      all = res.merged.tenants[i].issued ==
            campaign_.traffic.tenants[i].requests * campaign_.rounds;
    }
    check(r, all, "a tenant's declared requests were not all serviced");
    // DRAM-Locker denies every aggressor ACT and no faults are injected, so
    // the scrubbed rows hold no corruption the checksums could miss.  (Under
    // the chaos fault storm, checksum blind spots are modelled behaviour.)
    check(r, res.integrity_audit.missed_bytes == 0,
          "integrity audit missed " +
              std::to_string(res.integrity_audit.missed_bytes) + " bytes");
  }
  make_report(r, tracer, [&] { return ds::report_json({}, {}, {res}).dump(); });
  return r;
}

void ServeWorkload::sim_metrics(Metrics& out) const {
  if (!result_) return;
  const ds::ServeCampaignResult& res = *result_;
  if (const auto* w = tenant(res.merged, "weights")) {
    const std::string n =
        std::to_string(w->queue_latency.size()) + " weights-tenant samples";
    out.set("sim_p50_ns", dl::to_nanoseconds(w->latency_quantile(0.5)), "ns",
            n);
    out.set("sim_p99_ns", dl::to_nanoseconds(w->latency_quantile(0.99)), "ns",
            n);
  }
  if (res.chaos_enabled) {
    const ds::AvailabilityStats& av = res.availability;
    out.set("availability", av.availability(), "frac",
            std::to_string(av.served) + " served of " +
                std::to_string(av.offered) + " offered, " +
                std::to_string(av.shed) + " shed, " +
                std::to_string(av.failed) + " failed");
  }
}

// ---------------------------------------------------------------- hammer

HammerWorkload::HammerWorkload(std::uint64_t seed, Size size)
    : seed_(seed), size_(size) {}

void HammerWorkload::setup(Tracer& tracer) {
  ScopedSpan span(tracer, "setup", "expand + warm-up grid");
  cells_ = hammer_grid(seed_, size_);
  const auto warm = ds::run(hammer_grid(seed_, Size::kProbe));
  for (const auto& w : warm) {
    if (w.status != ds::CampaignStatus::kOk) {
      throw std::runtime_error("warm-up campaign failed: " + w.error);
    }
  }
}

RoundResult HammerWorkload::round(Tracer& tracer) {
  tracer.set_campaign(1);
  {
    ScopedSpan s(tracer, "scenario", "run " + std::to_string(cells_.size()) +
                                         " hammer cells");
    run_s_.push_back(time_s([&] { results_ = ds::run(cells_); }));
  }
  tracer.set_campaign(0);

  RoundResult r;
  std::uint64_t undefended_flips = 0;
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const auto& res = results_[i];
    count_campaign(r, res.name, res.status, res.error);
    r.ops += res.attack.granted_acts + res.attack.denied_acts;
    switch (cells_[i].defense.kind) {
      case ds::DefenseSpec::Kind::kDramLocker:
        check(r, res.attack.flips_in_victim == 0,
              res.name + " leaked " +
                  std::to_string(res.attack.flips_in_victim) +
                  " victim flips through DRAM-Locker");
        break;
      case ds::DefenseSpec::Kind::kNone:
        undefended_flips += res.attack.flips_in_victim;
        break;
      default:
        break;
    }
  }
  check(r, undefended_flips > 0,
        "undefended cells flipped no victim bits: the attack did nothing");
  make_report(r, tracer, [&] { return ds::report_json(results_).dump(); });
  return r;
}

void HammerWorkload::sim_metrics(Metrics& out) const {
  std::uint64_t acts = 0, denied = 0, undefended = 0, locker = 0;
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const auto& a = results_[i].attack;
    acts += a.granted_acts + a.denied_acts;
    denied += a.denied_acts;
    if (cells_[i].defense.kind == ds::DefenseSpec::Kind::kNone) {
      undefended += a.flips_in_victim;
    } else if (cells_[i].defense.kind == ds::DefenseSpec::Kind::kDramLocker) {
      locker += a.flips_in_victim;
    }
  }
  out.set("sim_acts", static_cast<double>(acts), "count",
          std::to_string(results_.size()) + " cells");
  out.set("sim_denied_acts", static_cast<double>(denied), "count");
  out.set("sim_undefended_victim_flips", static_cast<double>(undefended),
          "count");
  out.set("sim_locker_victim_flips", static_cast<double>(locker), "count");
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size) {
  if (name == "bfa") return std::make_unique<BfaWorkload>(seed, size);
  if (name == "serve") {
    return std::make_unique<ServeWorkload>(serve_campaign(seed, size),
                                           serve_campaign(seed, Size::kProbe));
  }
  if (name == "chaos") {
    return std::make_unique<ServeWorkload>(chaos_campaign(seed, size),
                                           chaos_campaign(seed, Size::kProbe));
  }
  if (name == "hammer") return std::make_unique<HammerWorkload>(seed, size);
  return nullptr;
}

}  // namespace perfbench
