#include "obs/trace.h"

#include <charconv>
#include <cstdio>
#include <cstring>

#include "common/assert.h"

namespace netco::obs {

namespace {

constexpr std::string_view event_name(TraceEvent event) noexcept {
  switch (event) {
    case TraceEvent::kHubIngress: return "hub.ingress";
    case TraceEvent::kHubMerge: return "hub.merge";
    case TraceEvent::kReplicaForward: return "replica.forward";
    case TraceEvent::kCompareIngest: return "compare.ingest";
    case TraceEvent::kCompareRelease: return "compare.release";
    case TraceEvent::kCompareEvictTimeout: return "compare.evict_timeout";
    case TraceEvent::kCompareEvictCapacity: return "compare.evict_capacity";
    case TraceEvent::kCompareEvictQuota: return "compare.evict_quota";
    case TraceEvent::kCompareDuplicate: return "compare.duplicate";
    case TraceEvent::kCompareLate: return "compare.late";
    case TraceEvent::kCompareMismatch: return "compare.mismatch";
    case TraceEvent::kCompareExpire: return "compare.expire";
    case TraceEvent::kLinkDrop: return "link.drop";
    case TraceEvent::kLinkLoss: return "link.loss";
    case TraceEvent::kHealthQuarantine: return "health.quarantine";
    case TraceEvent::kHealthReadmit: return "health.readmit";
    case TraceEvent::kHealthBan: return "health.ban";
    case TraceEvent::kCompareSuppressed: return "compare.suppressed";
    case TraceEvent::kResilienceCheckpoint: return "resilience.checkpoint";
    case TraceEvent::kResilienceCrash: return "resilience.crash";
    case TraceEvent::kResilienceHang: return "resilience.hang";
    case TraceEvent::kResilienceRestore: return "resilience.restore";
    case TraceEvent::kResilienceFailover: return "resilience.failover";
    case TraceEvent::kResilienceHeartbeatMiss:
      return "resilience.heartbeat_miss";
    case TraceEvent::kResilienceDegradedEnter:
      return "resilience.degraded_enter";
    case TraceEvent::kResilienceDegradedExit:
      return "resilience.degraded_exit";
    case TraceEvent::kResilienceHubCrash: return "resilience.hub_crash";
    case TraceEvent::kResilienceHubRestart: return "resilience.hub_restart";
    case TraceEvent::kCompareSampled: return "compare.sampled";
    case TraceEvent::kCompareFastpath: return "compare.fastpath";
    case TraceEvent::kRoutingUpdateTx: return "routing.update_tx";
    case TraceEvent::kRoutingUpdateRx: return "routing.update_rx";
    case TraceEvent::kRoutingRouteChange: return "routing.route_change";
    case TraceEvent::kRoutingRouteTimeout: return "routing.route_timeout";
    case TraceEvent::kFailoverLinkDown: return "failover.link_down";
    case TraceEvent::kFailoverLinkUp: return "failover.link_up";
    case TraceEvent::kFailoverSwitchKill: return "failover.switch_kill";
    case TraceEvent::kFailoverSwitchRestart: return "failover.switch_restart";
    case TraceEvent::kFailoverPortDead: return "failover.port_dead";
    case TraceEvent::kFailoverPortLive: return "failover.port_live";
    case TraceEvent::kFailoverReroute: return "failover.reroute";
  }
  return "unknown";
}

/// Bytes of a rendered line other than the component: the field names and
/// quotes, the longest event name, and every number at its widest
/// (INT64_MIN, 16 hex digits, INT32_MIN, UINT32_MAX), with slack.
constexpr std::size_t kLineFixedBytes = 160;

constexpr std::size_t longest_event_name() noexcept {
  std::size_t longest = 0;
  for (int e = 0; e <= static_cast<int>(TraceEvent::kFailoverReroute); ++e) {
    const std::size_t n = event_name(static_cast<TraceEvent>(e)).size();
    longest = n > longest ? n : longest;
  }
  return longest;
}
// Punctuation, field names and newline (53), then t, pkt, replica, bytes.
static_assert(kLineFixedBytes >= 53 + 20 + 16 + 11 + 10 + longest_event_name(),
              "kLineFixedBytes no longer covers the widest fixed fields");

template <std::size_t N>
char* put(char* out, const char (&literal)[N]) noexcept {
  std::memcpy(out, literal, N - 1);
  return out + (N - 1);
}

char* put(char* out, std::string_view text) noexcept {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

template <typename Int>
char* put_decimal(char* out, Int value) noexcept {
  // 20 chars hold any 64-bit value in decimal, sign included.
  return std::to_chars(out, out + 20, value).ptr;
}

/// %016llx: fixed-width packet ids so streams diff cleanly.
char* put_hex16(char* out, std::uint64_t value) noexcept {
  constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out + 16;
}

}  // namespace

const char* to_string(TraceEvent event) noexcept {
  return event_name(event).data();  // the names are string literals
}

std::string_view render_jsonl(const TraceRecord& record, std::string& buffer) {
  const std::size_t bound = kLineFixedBytes + record.component.size();
  if (buffer.size() < bound) buffer.resize(bound);
  char* const begin = buffer.data();
  char* out = put(begin, "{\"t\":");
  out = put_decimal(out, record.at_ns);
  out = put(out, ",\"ev\":\"");
  out = put(out, event_name(record.event));
  out = put(out, "\",\"pkt\":\"");
  out = put_hex16(out, record.packet_id);
  out = put(out, "\",\"replica\":");
  out = put_decimal(out, record.replica);
  out = put(out, ",\"bytes\":");
  out = put_decimal(out, record.bytes);
  out = put(out, ",\"src\":\"");
  out = put(out, record.component);  // component names are plain identifiers
  out = put(out, "\"}\n");
  return {begin, static_cast<std::size_t>(out - begin)};
}

std::string to_json(const TraceRecord& record) {
  std::string out;
  const std::size_t n = render_jsonl(record, out).size();
  out.resize(n - 1);
  return out;
}

void RingBufferSink::append(const TraceRecord& record) {
  ++appended_;
  if (records_.size() == capacity_) records_.pop_front();
  records_.push_back(record);
}

std::string RingBufferSink::serialize() const {
  std::string out;
  std::string line;
  for (const auto& record : records_) out += render_jsonl(record, line);
  return out;
}

JsonlFileSink::JsonlFileSink(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
}

JsonlFileSink::~JsonlFileSink() {
  if (file_ == nullptr) return;
  // Flush before close so a failure (ENOSPC surfacing at the final
  // buffer drain) is distinguishable from a close error, and a cleanly
  // destructed sink deterministically has every record on disk.
  const bool flushed = std::fflush(file_) == 0;
  std::fclose(file_);
  file_ = nullptr;
  NETCO_ASSERT_MSG(flushed, "trace sink: final flush failed (disk full?)");
}

void JsonlFileSink::append(const TraceRecord& record) {
  if (file_ == nullptr) return;
  const std::string_view line = render_jsonl(record, line_);
  const std::size_t wrote = std::fwrite(line.data(), 1, line.size(), file_);
  NETCO_ASSERT_MSG(wrote == line.size(),
                   "trace sink: short write (disk full?)");
  ++lines_;
}

void JsonlFileSink::flush() {
  if (file_ == nullptr) return;
  NETCO_ASSERT_MSG(std::fflush(file_) == 0,
                   "trace sink: flush failed (disk full?)");
}

void Tracer::emit_slow(std::int64_t at_ns, TraceEvent event,
                       std::uint64_t packet_id, std::string_view component,
                       std::int32_t replica, std::uint32_t bytes) {
  record_.at_ns = at_ns;
  record_.event = event;
  record_.packet_id = packet_id;
  record_.replica = replica;
  record_.bytes = bytes;
  record_.component.assign(component.data(), component.size());
  sink_->append(record_);
}

}  // namespace netco::obs
