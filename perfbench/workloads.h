// Workload generators and the sequential reference for the end-to-end
// benchmark. Every token carries a `seq` column (1, 2, 3, ... in
// submission order) and every trigger action raises an event carrying the
// `seq` of each bound tuple, so the subscriber can attribute and time each
// result without instrumenting the program under test.
//
// The reference replays the generated stream in seq order under
// sequential semantics and records, per token, the firings it must cause.
// A firing is attributed to the latest seq it binds (the shipment of a
// join pair; the crossing insert of an aggregate group). Select and join
// firings are matched to the reference by (trigger, seq). Aggregate
// firings are matched by count per (trigger, group) within a seq window:
// when drivers apply a group's inserts and deletes in another order, the
// group can cross its threshold on a neighbouring insert, and that is the
// same firing, not one missing and one extra.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/events.h"
#include "core/trigger_manager.h"
#include "types/update_descriptor.h"

namespace perfbench {

/// Upper bound on tokens one run generates. Per-seq arrays are allocated
/// at this size up front (untouched pages stay non-resident), so the
/// subscriber can read them while the generator appends.
inline constexpr uint64_t kMaxTokens = uint64_t{1} << 23;
inline constexpr uint64_t kMaxExpected = 4 * kMaxTokens;

enum class FireKind : uint8_t { kSelect = 0, kJoin = 1, kAggregate = 2 };

/// A received event, resolved against the generated inputs.
struct Resolved {
  uint64_t attr_seq = 0;  // latest bound seq (0 = unparseable)
  uint64_t key = 0;       // unique among the firings of attr_seq
  FireKind kind = FireKind::kSelect;
  bool sound = false;     // the bound tuples really satisfy the trigger
};

/// Expected firings per seq, appended by the generator thread and read
/// by the subscriber. The generator publishes seq s (its token's
/// submission) only after Publish(s), so entries of a submitted seq are
/// complete.
class Reference {
 public:
  Reference();

  /// Generator side: call Add for every firing of `seq`, then Publish.
  /// Exits the process once kMaxExpected firings are exceeded.
  void Add(uint64_t key);
  void Publish(uint64_t seq) { offsets_[seq + 1] = size_; }

  static constexpr uint64_t kNone = ~uint64_t{0};

  /// Subscriber side (for a submitted seq): index of the expected
  /// firing, or kNone when the reference has none.
  uint64_t Find(uint64_t seq, uint64_t key) const;

  /// Counts one receipt of expected firing `i` at time `ns`.
  void Receive(uint64_t i, int64_t ns) {
    if (counts_[i]++ == 0) first_ns_[i] = ns;
  }

  /// Expected firings of seqs [begin, end) are indexes
  /// [begin_of(begin), begin_of(end)).
  uint64_t begin_of(uint64_t seq) const { return offsets_[seq]; }
  uint64_t key(uint64_t i) const { return keys_[i]; }
  uint32_t count(uint64_t i) const { return counts_[i]; }
  int64_t first_ns(uint64_t i) const { return first_ns_[i]; }

 private:
  std::unique_ptr<uint64_t[]> offsets_;  // offsets_[s]..offsets_[s+1]
  std::unique_ptr<uint64_t[]> keys_;
  std::unique_ptr<uint32_t[]> counts_;
  std::unique_ptr<int64_t[]> first_ns_;  // first receipt, once counted
  uint64_t size_ = 0;
};

inline uint64_t KeyOf(FireKind kind, uint64_t a, uint64_t b = 0) {
  return (static_cast<uint64_t>(kind) << 60) | (a << 16) | b;
}

inline FireKind KindOfKey(uint64_t key) {
  return static_cast<FireKind>(key >> 60);
}

/// Firing counts over a seq window, indexed by FireKind.
struct Tally {
  uint64_t expected[3] = {0, 0, 0};
  uint64_t missing[3] = {0, 0, 0};
  uint64_t duplicates[3] = {0, 0, 0};  // for aggregates: surplus firings
  uint64_t unexpected[3] = {0, 0, 0};  // sound but not in the reference

  static uint64_t Sum(const uint64_t (&a)[3]) { return a[0] + a[1] + a[2]; }
};

class Workload;

/// Matches delivered events against the reference. Not thread-safe: the
/// caller serializes Record with the queries.
class Scoreboard {
 public:
  explicit Scoreboard(const Workload* wl) : wl_(wl) {}

  Reference& reference() { return ref_; }

  /// Records one delivered event received at `recv_ns`; `submitted` bounds
  /// the seqs it may bind. Returns its attribution seq (0 = unparseable).
  uint64_t Record(const tman::Event& event, uint64_t submitted,
                  int64_t recv_ns);

  Tally Count(uint64_t begin, uint64_t end) const;

  /// Delivery latencies (ms, ascending) of the firings attributed to
  /// [begin, end): `latency(seq, recv_ns)` of each first receipt of an
  /// expected firing, +infinity for each one never received. Surplus
  /// aggregate firings are left out.
  std::vector<double> Latencies(
      uint64_t begin, uint64_t end,
      const std::function<double(uint64_t, int64_t)>& latency) const;

  uint64_t unsound() const { return unsound_; }
  const std::vector<std::string>& unsound_samples() const {
    return unsound_samples_;
  }

 private:
  struct AggregateEvent {
    uint64_t seq;
    uint64_t key;
    int64_t recv_ns;
  };
  struct AggregateGroup {
    uint64_t expected = 0;
    std::vector<const AggregateEvent*> received;  // arrival order
  };

  /// Aggregate firings per (trigger, group) key within [begin, end).
  std::vector<std::pair<uint64_t, AggregateGroup>> AggregateGroups(
      uint64_t begin, uint64_t end) const;

  const Workload* wl_;
  Reference ref_;
  std::vector<std::pair<uint64_t, FireKind>> unexpected_;
  std::vector<AggregateEvent> aggregate_events_;
  uint64_t unsound_ = 0;
  std::vector<std::string> unsound_samples_;
};

/// One traffic mix: its schema, its trigger set, its token stream and the
/// expected firings of every token.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;

  /// Source definitions then `create trigger` commands, executed
  /// in-process through TriggerManager::ExecuteCommand at set-up.
  virtual std::vector<std::string> SetupCommands() const = 0;
  virtual size_t num_triggers() const = 0;

  /// Resolves the data source ids after set-up.
  virtual tman::Status Bind(tman::TriggerManager* tman) = 0;

  /// Token number `seq` of the stream; appends its expected firings to
  /// `ref` (and publishes). Called in seq order from one thread.
  virtual tman::UpdateDescriptor Next(uint64_t seq, Reference* ref) = 0;

  /// Attributes and checks a delivered event. `submitted` is the highest
  /// seq whose token was submitted; an event binding a later seq is
  /// unsound.
  virtual Resolved Resolve(const tman::Event& event,
                           uint64_t submitted) const = 0;

  /// Closed-loop throughput, tokens per second, of the program when this
  /// benchmark was written (4-CPU host). Sizes the closed phase, so every
  /// version of the program does the same work per run.
  virtual double nominal_rate() const = 0;

  /// Fixed offered rate of the open-loop phase (about half the nominal
  /// rate), tokens per second.
  virtual double open_rate() const = 0;

  /// Tokens submitted before measuring: enough to fill caches and, for
  /// join_window, the sliding window of live oids.
  virtual uint64_t warmup_tokens() const = 0;

  /// True when DDL runs beside the token load (churn_cold); otherwise the
  /// DDL figures come from a probe on the idle server after the token
  /// phases.
  virtual bool concurrent_ddl() const { return false; }

  /// DDL command number i: even = create trigger, odd = drop it. The
  /// created triggers never match generated tokens, so the reference
  /// stays exact.
  virtual std::string DdlCommand(uint64_t i) const = 0;

  /// Names of triggers whose networks keep alpha memories (join_window).
  virtual std::vector<std::string> StoredTriggers() const { return {}; }
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
