#include "src/core/supervisor.h"

#include "src/xbase/strfmt.h"

namespace safex {

std::string_view ExtHealthName(ExtHealth health) {
  switch (health) {
    case ExtHealth::kHealthy:
      return "healthy";
    case ExtHealth::kQuarantined:
      return "quarantined";
    case ExtHealth::kProbation:
      return "probation";
    case ExtHealth::kEvicted:
      return "evicted";
  }
  return "unknown";
}

ExtRecord& Supervisor::Track(xbase::u32 attachment_id) {
  std::lock_guard<std::mutex> lock(mu_);
  return records_[attachment_id];
}

AdmitDecision Supervisor::Admit(ExtRecord& record, xbase::u64 now_ns) {
  if (record.quiet.load(std::memory_order_acquire)) {
    record.invocations.Add();
    return AdmitDecision{};
  }
  std::lock_guard<std::mutex> lock(mu_);
  return AdmitLocked(record, now_ns);
}

ExtHealth Supervisor::RecordSuccess(ExtRecord& record, xbase::u64 now_ns) {
  if (record.quiet.load(std::memory_order_acquire)) {
    return ExtHealth::kHealthy;  // nothing to prune, no probation to close
  }
  std::lock_guard<std::mutex> lock(mu_);
  RecordSuccessLocked(record, now_ns);
  return record.health.load(std::memory_order_relaxed);
}

ExtHealth Supervisor::RecordFailure(ExtRecord& record, FailureKind kind,
                                    std::string detail, xbase::u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordFailureLocked(record, kind, std::move(detail), now_ns);
  return record.health.load(std::memory_order_relaxed);
}

AdmitDecision Supervisor::Admit(xbase::u32 attachment_id, xbase::u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  return AdmitLocked(records_[attachment_id], now_ns);
}

void Supervisor::RecordSuccess(xbase::u32 attachment_id, xbase::u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(attachment_id);
  if (it != records_.end()) {
    RecordSuccessLocked(it->second, now_ns);
  }
}

void Supervisor::RecordFailure(xbase::u32 attachment_id, FailureKind kind,
                               std::string detail, xbase::u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordFailureLocked(records_[attachment_id], kind, std::move(detail),
                      now_ns);
}

AdmitDecision Supervisor::AdmitLocked(ExtRecord& record, xbase::u64 now_ns) {
  AdmitDecision decision;
  switch (record.health.load(std::memory_order_relaxed)) {
    case ExtHealth::kHealthy:
      break;
    case ExtHealth::kQuarantined:
      if (now_ns >= record.quarantined_until_ns) {
        // Backoff served: half-open the breaker for trial invocations.
        record.health.store(ExtHealth::kProbation, std::memory_order_relaxed);
        record.probation_left = config_.probation_successes;
        record.quarantined_until_ns = 0;
        decision.probation_trial = true;
      } else {
        decision.allow = false;
        ++record.skips;
        ++skips_;
      }
      break;
    case ExtHealth::kProbation:
      decision.probation_trial = true;
      break;
    case ExtHealth::kEvicted:
      decision.allow = false;
      ++record.skips;
      ++skips_;
      break;
  }
  if (decision.allow) {
    record.invocations.Add();
  }
  Publish(record);
  decision.health = record.health.load(std::memory_order_relaxed);
  return decision;
}

void Supervisor::RecordSuccessLocked(ExtRecord& record, xbase::u64 now_ns) {
  PruneWindow(record, now_ns);
  if (record.health.load(std::memory_order_relaxed) == ExtHealth::kProbation &&
      record.probation_left > 0 && --record.probation_left == 0) {
    record.health.store(ExtHealth::kHealthy, std::memory_order_relaxed);
    record.window.clear();
    ++readmissions_;
  }
  Publish(record);
}

void Supervisor::RecordFailureLocked(ExtRecord& record, FailureKind kind,
                                     std::string detail, xbase::u64 now_ns) {
  const ExtHealth health = record.health.load(std::memory_order_relaxed);
  if (health == ExtHealth::kEvicted) {
    return;  // nothing left to contain
  }
  // Per-CPU clocks advance independently, so a failure reported from a
  // lagging CPU can carry a timestamp behind the record's newest window
  // entry. Clamp to keep each record's window monotonic (the invariant
  // CheckConsistent audits); cross-record ordering is not a contract.
  if (!record.window.empty() && now_ns < record.window.back().at_ns) {
    now_ns = record.window.back().at_ns;
  }
  FailureEvent event{now_ns, kind, std::move(detail)};
  record.last_failure = event;
  record.window.push_back(std::move(event));
  ++record.failures_total;
  ++record.failures_by_kind[static_cast<xbase::usize>(kind)];
  ++failures_;
  PruneWindow(record, now_ns);
  // A failure during a half-open trial re-trips immediately: the extension
  // has not earned its way back. Otherwise the sliding-window budget rules.
  if (health == ExtHealth::kProbation ||
      record.window.size() >= kCrashBudget) {
    Trip(record, now_ns);
  }
  Publish(record);
}

void Supervisor::Trip(ExtRecord& record, xbase::u64 now_ns) {
  ++record.trips;
  ++trips_;
  record.window.clear();
  record.probation_left = 0;
  if (record.trips >= config_.max_trips) {
    record.health.store(ExtHealth::kEvicted, std::memory_order_relaxed);
    record.quarantined_until_ns = 0;
    ++evictions_;
  } else {
    record.health.store(ExtHealth::kQuarantined, std::memory_order_relaxed);
    record.quarantined_until_ns = now_ns + BackoffFor(record.trips);
  }
}

void Supervisor::Publish(ExtRecord& record) {
  record.quiet.store(
      record.health.load(std::memory_order_relaxed) == ExtHealth::kHealthy &&
          record.window.empty(),
      std::memory_order_release);
}

void Supervisor::PruneWindow(ExtRecord& record, xbase::u64 now_ns) {
  const xbase::u64 horizon =
      now_ns > config_.window_ns ? now_ns - config_.window_ns : 0;
  while (!record.window.empty() && record.window.front().at_ns < horizon) {
    record.window.pop_front();
  }
}

xbase::u64 Supervisor::BackoffFor(xbase::u32 trips) const {
  // Each trip doubles the quarantine.
  xbase::u64 backoff = config_.base_backoff_ns;
  for (xbase::u32 i = 1; i < trips; ++i) {
    if (backoff > config_.max_backoff_ns / 2) {
      return config_.max_backoff_ns;
    }
    backoff *= 2;
  }
  return backoff < config_.max_backoff_ns ? backoff : config_.max_backoff_ns;
}

void Supervisor::Forget(xbase::u32 attachment_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(attachment_id);
  if (it == records_.end()) {
    return;
  }
  forgotten_failures_ += it->second.failures_total;
  forgotten_skips_ += it->second.skips;
  records_.erase(it);
}

ExtHealth Supervisor::HealthOf(xbase::u32 attachment_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(attachment_id);
  return it == records_.end()
             ? ExtHealth::kHealthy
             : it->second.health.load(std::memory_order_relaxed);
}

const ExtRecord* Supervisor::Find(xbase::u32 attachment_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(attachment_id);
  return it == records_.end() ? nullptr : &it->second;
}

xbase::Status Supervisor::CheckConsistent(xbase::u64 now_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  xbase::u64 failures = 0;
  xbase::u64 skips = 0;
  for (const auto& [id, record] : records_) {
    failures += record.failures_total;
    skips += record.skips;
    const ExtHealth health = record.health.load(std::memory_order_relaxed);
    if (record.quiet.load(std::memory_order_relaxed) !=
        (health == ExtHealth::kHealthy && record.window.empty())) {
      return xbase::Internal(xbase::StrFormat(
          "supervisor: attachment %u lock-free flag disagrees with its "
          "health and window",
          id));
    }
    switch (health) {
      case ExtHealth::kHealthy:
        if (record.probation_left != 0) {
          return xbase::Internal(xbase::StrFormat(
              "supervisor: healthy attachment %u has probation_left", id));
        }
        break;
      case ExtHealth::kQuarantined:
        if (record.quarantined_until_ns == 0 || record.trips == 0) {
          return xbase::Internal(xbase::StrFormat(
              "supervisor: quarantined attachment %u lacks deadline/trip",
              id));
        }
        break;
      case ExtHealth::kProbation:
        if (record.probation_left == 0 ||
            record.probation_left > config_.probation_successes) {
          return xbase::Internal(xbase::StrFormat(
              "supervisor: probation attachment %u counter out of range",
              id));
        }
        break;
      case ExtHealth::kEvicted:
        if (record.trips < config_.max_trips) {
          return xbase::Internal(xbase::StrFormat(
              "supervisor: attachment %u evicted below max_trips", id));
        }
        break;
    }
    if (record.trips > config_.max_trips) {
      return xbase::Internal(xbase::StrFormat(
          "supervisor: attachment %u tripped past max_trips", id));
    }
    xbase::u64 prev = 0;
    for (const FailureEvent& event : record.window) {
      if (event.at_ns < prev || event.at_ns > now_ns) {
        return xbase::Internal(xbase::StrFormat(
            "supervisor: attachment %u window out of order", id));
      }
      prev = event.at_ns;
    }
    if (record.window.size() > kCrashBudget) {
      return xbase::Internal(xbase::StrFormat(
          "supervisor: attachment %u window exceeds crash budget", id));
    }
  }
  if (failures + forgotten_failures_ != failures_ ||
      skips + forgotten_skips_ != skips_) {
    return xbase::Internal("supervisor: aggregate counters drifted");
  }
  return xbase::Status::Ok();
}

}  // namespace safex
