#include "faultinject/invariants.h"

#include <bit>
#include <cstdio>
#include <span>
#include <utility>

namespace netco::faultinject {

namespace {
constexpr std::size_t kMaxDetails = 32;
}  // namespace

void InvariantReport::note(std::string detail) {
  ++violations;
  if (details.size() < kMaxDetails) details.push_back(std::move(detail));
}

void InvariantReport::merge(const InvariantReport& other) {
  checks += other.checks;
  violations += other.violations;
  for (const auto& detail : other.details) {
    if (details.size() == kMaxDetails) break;
    details.push_back(detail);
  }
}

void check_audit(const core::CompareAudit& audit, const std::string& where,
                 InvariantReport& report) {
  char buf[160];

  ++report.checks;
  if (!audit.age_cache_consistent) {
    report.note(where + ": age list and cache disagree");
  }
  ++report.checks;
  if (!audit.age_ordered) {
    report.note(where + ": age list not oldest-first");
  }
  ++report.checks;
  if (audit.cache_entries > audit.cache_capacity) {
    std::snprintf(buf, sizeof buf, "%s: cache %zu exceeds capacity %zu",
                  where.c_str(), audit.cache_entries, audit.cache_capacity);
    report.note(buf);
  }
  for (std::size_t r = 0; r < audit.quota_counts.size(); ++r) {
    ++report.checks;
    if (audit.quota_counts[r] != audit.live_singletons[r]) {
      std::snprintf(
          buf, sizeof buf,
          "%s: replica %zu quota counter %llu != live singletons %llu",
          where.c_str(), r,
          static_cast<unsigned long long>(audit.quota_counts[r]),
          static_cast<unsigned long long>(audit.live_singletons[r]));
      report.note(buf);
    }
  }

  if (!audit.vote_active) return;
  const core::VoteCacheAudit& v = audit.vote;
  ++report.checks;
  if (!v.consistent) {
    std::snprintf(buf, sizeof buf,
                  "%s: vote cache inconsistent (entries=%zu age=%zu "
                  "chain=%zu free=%zu arena=%zu)",
                  where.c_str(), v.entries, v.age_entries, v.chain_entries,
                  v.free_slots, v.arena);
    report.note(buf);
  }
  ++report.checks;
  if (!v.age_ordered) {
    report.note(where + ": vote cache age list not oldest-first");
  }
  ++report.checks;
  if (v.entries > v.capacity) {
    std::snprintf(buf, sizeof buf,
                  "%s: vote cache %zu exceeds capacity %zu", where.c_str(),
                  v.entries, v.capacity);
    report.note(buf);
  }
  for (std::size_t r = 0; r < v.quota_counts.size(); ++r) {
    ++report.checks;
    if (v.quota_counts[r] != v.live_quota_held[r]) {
      std::snprintf(
          buf, sizeof buf,
          "%s: vote cache replica %zu quota counter %llu != held slots %llu",
          where.c_str(), r,
          static_cast<unsigned long long>(v.quota_counts[r]),
          static_cast<unsigned long long>(v.live_quota_held[r]));
      report.note(buf);
    }
  }
}

std::uint32_t QuorumTraceChecker::intern(const std::string& component) {
  const auto hit = component_ids_.find(component);
  if (hit != component_ids_.end()) return hit->second;
  // Cold path: a component seen for the first time. Group by the wire:
  // "compare/netco-e0" and "standby/netco-e0" both emit onto edge
  // netco-e0, so they must intern to the same group.
  const std::size_t slash = component.find('/');
  const std::string suffix =
      slash == std::string::npos ? component : component.substr(slash + 1);
  const auto group = group_ids_.try_emplace(
      suffix, static_cast<std::uint32_t>(group_ids_.size()));
  components_.push_back(
      {group.first->second,
       fnv1a(std::as_bytes(std::span(suffix.data(), suffix.size())))});
  const auto id = static_cast<std::uint32_t>(components_.size() - 1);
  component_ids_.emplace(component, id);
  return id;
}

void QuorumTraceChecker::audit_window(const obs::TraceRecord& record,
                                      std::uint32_t group, const char* what) {
  // Prune entries that fell out of the window; forget a mapped time only
  // if no newer one overwrote it.
  while (!release_log_.empty() &&
         record.at_ns - std::get<0>(release_log_.front()) >
             config_.duplicate_window_ns) {
    const auto& [ns, gid, id] = release_log_.front();
    const std::int64_t* last = last_release_.find(gid, id);
    if (last != nullptr && *last == ns) last_release_.erase(gid, id);
    release_log_.pop_front();
  }
  ++report_.checks;
  const std::int64_t* last = last_release_.find(group, record.packet_id);
  if (last != nullptr &&
      record.at_ns - *last <= config_.duplicate_window_ns) {
    ++duplicates_;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s: %s %016llx at t=%lld (previous t=%lld)",
                  record.component.c_str(), what,
                  static_cast<unsigned long long>(record.packet_id),
                  static_cast<long long>(record.at_ns),
                  static_cast<long long>(*last));
    report_.note(buf);
  }
  last_release_(group, record.packet_id) = record.at_ns;
  release_log_.emplace_back(record.at_ns, group, record.packet_id);
}

void QuorumTraceChecker::append(const obs::TraceRecord& record) {
  ++records_;
  const std::string_view line = obs::render_jsonl(record, line_);
  hash_ = fnv1a(std::as_bytes(std::span(line.data(), line.size())), hash_);
  if (tee_ != nullptr) tee_->append(record);

  switch (record.event) {
    case obs::TraceEvent::kCompareIngest:
      if (record.replica >= 0 && record.replica < 64) {
        votes_(intern(record.component), record.packet_id) |=
            1ULL << static_cast<unsigned>(record.replica);
      }
      break;
    case obs::TraceEvent::kCompareRelease:
    case obs::TraceEvent::kCompareFastpath: {
      const bool fastpath = record.event == obs::TraceEvent::kCompareFastpath;
      ++releases_;
      ++report_.checks;
      const std::uint32_t component = intern(record.component);
      const std::uint64_t* votes = votes_.find(component, record.packet_id);
      std::uint64_t counted = votes != nullptr ? *votes : 0;
      // A fast-path release record names its deciding replica — the vote
      // that tripped the release rule rides the release record instead of
      // a separate ingest record (the sampled mode's trace thinning).
      if (fastpath && record.replica >= 0 && record.replica < 64) {
        counted |= 1ULL << static_cast<unsigned>(record.replica);
      }
      int needed = config_.first_copy ? 1 : config_.quorum;
      if (config_.k > 0) {
        // Adaptive mode: mirror CompareCore's live-set rules against the
        // health records already folded into quarantined_mask_.
        counted &= ~quarantined_mask_;
        const int live = config_.k - std::popcount(quarantined_mask_);
        needed = (config_.first_copy || live <= 2) ? 1 : live / 2 + 1;
      }
      // A fast-path release is first-copy-shaped by design: legal with one
      // vote, as long as that vote came from a non-quarantined replica —
      // filtered here unconditionally, because the k > 0 filter above is
      // off in non-adaptive checker configs and a quarantined deciding
      // replica must never pass on the OR'd-in release vote alone.
      if (fastpath) {
        counted &= ~quarantined_mask_;
        needed = 1;
      }
      const int vote_count = std::popcount(counted);
      if (vote_count < needed) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "%s: released %016llx with %d votes (need %d) t=%lld",
                      record.component.c_str(),
                      static_cast<unsigned long long>(record.packet_id),
                      vote_count, needed,
                      static_cast<long long>(record.at_ns));
        report_.note(buf);
      }
      const Component& info = components_[component];
      egress_hash_ += hash_mix(record.packet_id, info.group_fnv);
      if (config_.check_duplicates) {
        audit_window(record, info.group, "duplicate egress of");
      }
      break;
    }
    case obs::TraceEvent::kFailoverReroute:
      ++reroutes_;
      // Same duplicate-window audit as egress, keyed by the emitting
      // switch: every detour hop rewrites the VID (new content hash), so
      // a repeat of the same id at the same switch is a genuine loop.
      if (config_.check_duplicates && config_.audit_reroutes) {
        audit_window(record, components_[intern(record.component)].group,
                     "reroute loop on");
      }
      break;
    case obs::TraceEvent::kCompareEvictTimeout:
    case obs::TraceEvent::kCompareEvictCapacity:
    case obs::TraceEvent::kCompareEvictQuota:
    case obs::TraceEvent::kCompareExpire:
      // The cache entry is gone; forget its votes so the table stays
      // bounded by the live cache size.
      votes_.erase(intern(record.component), record.packet_id);
      break;
    case obs::TraceEvent::kHealthQuarantine:
    case obs::TraceEvent::kHealthBan:
      if (record.replica >= 0 && record.replica < 64) {
        quarantined_mask_ |= 1ULL << static_cast<unsigned>(record.replica);
      }
      break;
    case obs::TraceEvent::kHealthReadmit:
      if (record.replica >= 0 && record.replica < 64) {
        quarantined_mask_ &= ~(1ULL << static_cast<unsigned>(record.replica));
      }
      break;
    default:
      break;
  }
}

}  // namespace netco::faultinject
