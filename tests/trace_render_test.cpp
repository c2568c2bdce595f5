// Canonical trace rendering: the allocation-free JSONL renderer against a
// printf oracle, and the contract that ties the checker's stream hash to
// the bytes every sink writes.
//
// The oracle is the printf format the renderer replaced. Golden stream
// hashes across the test suite cover these exact bytes, so the renderer
// must reproduce it for every value a field can take, not just the ones a
// scenario happens to emit.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "faultinject/invariants.h"
#include "faultinject/packet_table.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "scenario/soak_circuit.h"

namespace netco {
namespace {

/// The reference rendering: the printf format the canonical line was first
/// defined by (no trailing newline).
std::string oracle_json(const obs::TraceRecord& record) {
  char head[160];
  const int n = std::snprintf(
      head, sizeof head,
      "{\"t\":%lld,\"ev\":\"%s\",\"pkt\":\"%016llx\",\"replica\":%d,"
      "\"bytes\":%u,\"src\":\"",
      static_cast<long long>(record.at_ns), obs::to_string(record.event),
      static_cast<unsigned long long>(record.packet_id), record.replica,
      record.bytes);
  std::string out(head, static_cast<std::size_t>(n));
  out += record.component;
  out += "\"}";
  return out;
}

constexpr int kEventCount =
    static_cast<int>(obs::TraceEvent::kFailoverReroute) + 1;

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&edges)[N], T random) {
  // Half the draws hit an edge value, half a random one.
  const std::uint64_t i = rng.uniform_u64(2 * N);
  return i < N ? edges[i] : random;
}

std::string random_component(Rng& rng) {
  static const char* const kNamed[] = {
      "",                 // empty
      "hub",              // short
      "compare/netco-e1", // 16 bytes: one past the small-string buffer
      "standby/netco-e0",
      "fabric/pod3/agg1/core-switch-with-a-long-name"};
  const std::uint64_t i = rng.uniform_u64(2 * std::size(kNamed));
  if (i < std::size(kNamed)) return kNamed[i];
  std::string name(rng.uniform_u64(80), '\0');
  for (char& c : name) {
    c = static_cast<char>(' ' + rng.uniform_u64(95));  // printable ASCII
  }
  return name;
}

std::vector<obs::TraceRecord> random_records(std::uint64_t seed,
                                             std::size_t count) {
  static const std::int64_t kTimes[] = {INT64_MIN, -1, 0, INT64_MAX};
  static const std::int32_t kReplicas[] = {INT32_MIN, -1, 0, 63, INT32_MAX};
  static const std::uint32_t kBytes[] = {0, UINT32_MAX};
  static const std::uint64_t kPackets[] = {0, ~std::uint64_t{0}};
  Rng rng(seed);
  std::vector<obs::TraceRecord> records(count);
  for (std::size_t i = 0; i < count; ++i) {
    obs::TraceRecord& r = records[i];
    r.event = static_cast<obs::TraceEvent>(i % kEventCount);
    r.at_ns = pick(rng, kTimes, static_cast<std::int64_t>(rng.next_u64()));
    r.replica =
        pick(rng, kReplicas, static_cast<std::int32_t>(rng.next_u64()));
    r.bytes = pick(rng, kBytes, static_cast<std::uint32_t>(rng.next_u64()));
    r.packet_id = pick(rng, kPackets, rng.next_u64());
    r.component = random_component(rng);
  }
  return records;
}

TEST(TraceRender, MatchesPrintfOracleOnEveryFieldExtreme) {
  const std::vector<obs::TraceRecord> records = random_records(0x7EACE, 12000);
  std::string buffer;
  bool saw_extremes[4] = {};
  for (const obs::TraceRecord& r : records) {
    const std::string expected = oracle_json(r);
    ASSERT_EQ(obs::render_jsonl(r, buffer), expected + '\n');
    ASSERT_EQ(obs::to_json(r), expected);
    saw_extremes[0] |= r.at_ns == INT64_MIN;
    saw_extremes[1] |= r.replica == INT32_MIN;
    saw_extremes[2] |= r.bytes == UINT32_MAX;
    saw_extremes[3] |= r.packet_id == ~std::uint64_t{0};
  }
  for (bool seen : saw_extremes) EXPECT_TRUE(seen);
}

TEST(TraceRender, ReusedBufferStopsGrowing) {
  obs::TraceRecord record;
  record.component = std::string(200, 'x');
  std::string buffer;
  (void)obs::render_jsonl(record, buffer);
  const char* const storage = buffer.data();
  const std::size_t size = buffer.size();
  for (const obs::TraceRecord& r : random_records(5, 500)) {
    const std::string_view line = obs::render_jsonl(r, buffer);
    EXPECT_EQ(line.data(), storage);
    EXPECT_EQ(buffer.size(), size);
  }
}

TEST(TraceRender, SinksWriteTheOracleStream) {
  const std::vector<obs::TraceRecord> records = random_records(11, 2000);
  std::string expected;
  for (const obs::TraceRecord& r : records) expected += oracle_json(r) + '\n';

  obs::RingBufferSink ring(records.size());
  const std::string path = ::testing::TempDir() + "trace_render_test.jsonl";
  {
    obs::JsonlFileSink file(path);
    ASSERT_TRUE(file.ok());
    for (const obs::TraceRecord& r : records) {
      ring.append(r);
      file.append(r);
    }
    EXPECT_EQ(file.lines_written(), records.size());
  }
  EXPECT_EQ(ring.serialize(), expected);
  std::ifstream in(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, expected);
  std::remove(path.c_str());
}

/// Forwards every record to each of its sinks in order.
class FanOutSink final : public obs::TraceSink {
 public:
  explicit FanOutSink(std::vector<obs::TraceSink*> sinks)
      : sinks_(std::move(sinks)) {}
  void append(const obs::TraceRecord& record) override {
    for (obs::TraceSink* sink : sinks_) sink->append(record);
  }

 private:
  std::vector<obs::TraceSink*> sinks_;
};

// The checker hashes records it renders itself; the sinks render their
// own. Both go through one renderer, so a k=5 soak's stream hash must be
// the FNV-1a of exactly what a RingBufferSink serializes.
TEST(TraceHashContract, CheckerHashEqualsFnvOfSerializedStream) {
  scenario::SoakOptions options;
  options.k = 5;
  options.policy = core::ReleasePolicy::kMajority;
  options.health.enabled = true;
  options.seed = 0x5EED5;
  options.packets = 1500;

  obs::RingBufferSink ring(1 << 22);
  faultinject::QuorumTraceChecker checker({.quorum = 3, .k = 5}, &ring);
  scenario::SoakCircuit circuit(options);
  FanOutSink fan_out({&circuit.trace_sink(), &checker});
  obs::ScopedTraceSink scoped(fan_out);
  sim::TimePoint cap = circuit.start();
  while (cap != scenario::SoakCircuit::done_marker()) {
    circuit.simulator().run_until(cap);
    cap = circuit.on_window(cap);
  }
  circuit.finalize();
  const scenario::SoakResult result = circuit.take_result();

  ASSERT_TRUE(result.ok()) << "violations=" << result.invariants.violations;
  ASSERT_GT(checker.records_seen(), 10'000u);
  ASSERT_EQ(ring.total_appended(), ring.records().size()) << "ring wrapped";
  const std::string stream = ring.serialize();
  EXPECT_EQ(checker.stream_hash(),
            fnv1a(std::as_bytes(std::span(stream.data(), stream.size()))));
  EXPECT_EQ(checker.stream_hash(), result.stream_hash);
  EXPECT_EQ(checker.records_seen(), result.trace_records);
  EXPECT_TRUE(checker.report().ok());
}

// The checker's flat table against std::unordered_map under insert/erase
// churn dense enough to wrap probe runs and exercise backward shifts.
TEST(PacketTable, AgreesWithAMapUnderChurn) {
  faultinject::PacketTable<std::uint64_t> table;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  const auto key = [](std::uint32_t id, std::uint64_t packet) {
    return packet * 8 + id;
  };
  Rng rng(99);
  for (int step = 0; step < 200'000; ++step) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_u64(3));
    const std::uint64_t packet = rng.uniform_u64(3000);  // small, clustered
    switch (rng.uniform_u64(3)) {
      case 0:
        table(id, packet) += 1;
        oracle[key(id, packet)] += 1;
        break;
      case 1:
        table.erase(id, packet);
        oracle.erase(key(id, packet));
        break;
      default: {
        const std::uint64_t* found = table.find(id, packet);
        const auto it = oracle.find(key(id, packet));
        ASSERT_EQ(found != nullptr, it != oracle.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(table.size(), oracle.size());
  }
  for (const auto& [k, v] : oracle) {
    const std::uint64_t* found =
        table.find(static_cast<std::uint32_t>(k % 8), k / 8);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, v);
  }
}

}  // namespace
}  // namespace netco
