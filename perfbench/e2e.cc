// End-to-end benchmark of the deployed TriggerMan path:
//
//   RemoteClient --TCP 127.0.0.1--> TmanServer -> TriggerManager
//   (durable WAL + persistent staging queue, 2 drivers, other options at
//   their defaults) -> predicate index -> A-TREAT -> actions -> event push
//   to a subscribing RemoteClient.
//
// One process hosts the system and the load: one generator connection,
// one subscriber connection and, for DDL, one command connection. Every
// token carries a `seq` column and every action raises an event carrying
// the bound seqs, so the subscriber times and checks each result from
// outside the program.
//
// Usage:
//   tman_e2e --workload <select_hot|join_window|churn_cold> --seed N
//            --seconds S --trace <0|1> [--out DIR]
//   tman_e2e --replay-modes --seed N
//
// The last stdout line is a JSON object {"metrics": {...}, "detail":
// {...}, "correct": bool, "attempted": n, "failed": n}; perfbench/run.py
// adds host context and prints the benchmark's result line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/trigger_manager.h"
#include "db/database.h"
#include "expr/eval.h"
#include "ipc/remote_client.h"
#include "ipc/server.h"
#include "ipc/socket_transport.h"
#include "ipc/wire_format.h"
#include "recorder.h"
#include "runtime/driver.h"
#include "util/sharded_counter.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tman::Event;
using tman::Status;
using tman::UpdateDescriptor;

// Set-up repeats until it has run kMinSetups times and kMinSetupSeconds in
// all, then once more for the instance that serves the run; setup_s is the
// median. One set-up of a small trigger set takes about 0.1 s and varies
// by half of that, so a fixed small count left the median unsteady.
constexpr size_t kMinSetups = 2;
constexpr double kMinSetupSeconds = 2.0;
// DDL over the wire beside the open-loop token load, commands per second.
constexpr double kDdlRate = 500;
// The closed phase runs in rounds; tokens_per_s is the median round.
constexpr int kClosedRounds = 7;
constexpr int64_t kDrainDeadlineNs = 10'000'000'000;
// Order/shipment pairs the cross-staging-mode replay feeds through.
constexpr uint64_t kReplayOids = 20000;
// Ceilings on the known firing defects of the deployed mode (README.md,
// "Correctness"). At the baseline join_window duplicates 3-4% of its join
// firings and receives 0.9-1.05 times its expected aggregate firings; a
// run beyond these ceilings is not correct.
constexpr double kMaxJoinDuplicateShare = 0.10;
constexpr double kMinAggregateShare = 0.5;
constexpr double kMaxAggregateShare = 2.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool replay_modes = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--replay-modes") {
      a->replay_modes = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = v == "1";
    } else if (flag == "--out") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return a->replay_modes || (!a->workload.empty() && a->seconds > 0);
}

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "tman_e2e: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}

/// What cluster_main configures for a member: durable WAL, persistent
/// staging queue, two drivers; every other option at its default.
tman::TriggerManagerOptions DeployedOptions() {
  tman::TriggerManagerOptions o;
  o.durable_wal = true;
  o.persistent_queue = true;
  o.driver_config.num_cpus = 2;
  return o;
}

// --- small statistics helpers ------------------------------------------------

/// Nearest-rank percentile of an ascending vector (q in [0, 1]).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// A latency percentile that lands on a result that never arrived reads
/// as the drain deadline: beyond every limit the benchmark can observe.
double LatencyMs(const std::vector<double>& sorted, double q) {
  double v = Percentile(sorted, q);
  return std::isfinite(v) ? v : static_cast<double>(kDrainDeadlineNs) / 1e6;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// JSON object built in insertion order.
class Json {
 public:
  Json& Num(const std::string& k, double v) {
    std::ostringstream s;
    if (std::isfinite(v)) {
      s.precision(17);
      s << v;
    } else {
      s << "null";
    }
    return Raw(k, s.str());
  }
  Json& Int(const std::string& k, uint64_t v) {
    return Raw(k, std::to_string(v));
  }
  Json& Bool(const std::string& k, bool v) { return Raw(k, v ? "true" : "false"); }
  Json& Str(const std::string& k, const std::string& v) {
    std::string e = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') e += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      e += c;
    }
    return Raw(k, e + "\"");
  }
  Json& Obj(const std::string& k, const Json& v) { return Raw(k, v.str()); }
  Json& Arr(const std::string& k, const std::vector<double>& v) {
    std::string a = "[";
    for (double x : v) {
      if (a.size() > 1) a += ", ";
      std::ostringstream s;
      s.precision(6);
      s << (std::isfinite(x) ? x : static_cast<double>(kDrainDeadlineNs) / 1e6);
      a += s.str();
    }
    return Raw(k, a + "]");
  }
  Json& Metric(const std::string& k, double v, const std::string& unit) {
    Json m;
    m.Num("value", v).Str("unit", unit);
    return Obj(k, m);
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& Raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
    return *this;
  }
  std::string body_;
};

// --- the system under test ---------------------------------------------------

struct System {
  tman::Database db;  // outlives tman
  std::unique_ptr<tman::TriggerManager> tman;
  std::unique_ptr<tman::TmanServer> server;
  uint16_t port = 0;

  System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;
  ~System() {
    if (server != nullptr) server->Stop();
    if (tman != nullptr) tman->Stop();
  }
};

/// Set-up as timed by setup_s: Open(), source definitions and trigger
/// installation through the in-process command path, drivers, then the
/// TCP server, until it accepts connections. `hooks` installs the traced
/// run's observers before Start().
std::unique_ptr<System> SetUp(
    const std::vector<std::string>& commands,
    const std::function<void(tman::TriggerManager*)>& hooks,
    double* seconds) {
  const int64_t t0 = NowNs();
  auto sys = std::make_unique<System>();
  sys->tman = std::make_unique<tman::TriggerManager>(&sys->db,
                                                     DeployedOptions());
  if (Status s = sys->tman->Open(); !s.ok()) Die("open", s);
  for (const std::string& cmd : commands) {
    auto r = sys->tman->ExecuteCommand(cmd);
    if (!r.ok()) Die("setup command '" + cmd + "'", r.status());
  }
  if (hooks) hooks(sys->tman.get());
  if (Status s = sys->tman->Start(); !s.ok()) Die("start", s);
  auto listener = tman::TcpListener::Bind("127.0.0.1", 0);
  if (!listener.ok()) Die("bind", listener.status());
  sys->port = (*listener)->port();
  sys->server = std::make_unique<tman::TmanServer>(
      sys->tman.get(), std::move(*listener), tman::TmanServerOptions());
  if (Status s = sys->server->Start(); !s.ok()) Die("server start", s);
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return sys;
}

/// Public stats() of every layer at one instant.
struct Snapshot {
  int64_t t_ns = 0;
  uint64_t seq = 0;  // first seq not yet generated
  tman::TriggerManagerStats tm;
  tman::TaskQueueStats queue;
  tman::TmanServerStats server;
  tman::RemoteClientStats gen;
  tman::DiskStats disk;
  tman::BufferPoolStats pool;
  uint64_t sig_candidates = 0;
  uint64_t sig_matches = 0;
  uint64_t interpreter_calls = 0;
};

struct PhaseResult {
  uint64_t begin_seq = 0;
  uint64_t end_seq = 0;  // exclusive
  int64_t start_ns = 0;
  int64_t done_ns = 0;
  double tokens_per_s = 0;
};

struct DdlSample {
  int64_t sched_ns;
  int64_t latency_ns;
  bool ok;
};

/// The load generator, subscriber and DDL client of one run. Constructed
/// before the system so the traced run's in-process hooks can point at it.
class Harness {
 public:
  /// `open_tokens` sizes the open phase's per-seq fire/deliver records.
  Harness(Workload* wl, Recorder* rec, uint64_t open_tokens)
      : wl_(wl), rec_(rec), board_(wl),
        sched_(new int64_t[kMaxTokens + 1]),
        submit_(new int64_t[kMaxTokens + 1]) {
    if (rec_ != nullptr) {
      fire_ns_ = std::vector<std::atomic<int64_t>>(open_tokens);
      first_deliver_.assign(open_tokens, 0);
    }
  }

  ~Harness() { Close(); }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Closes the clients; call before the server stops, or they would try
  /// to reconnect.
  void Close() {
    StopDdlThread();
    if (sub_ != nullptr) sub_->Close();
    if (gen_ != nullptr) gen_->Close();
    if (ddl_ != nullptr) ddl_->Close();
  }

  void Connect(System* sys) {
    sys_ = sys;
    sub_ = MakeClient("perfbench-subscriber");
    gen_ = MakeClient("perfbench-generator");
    auto reg = sub_->RegisterForEvent(
        "*", [this](const Event& e) { OnDelivered(e); });
    if (!reg.ok()) Die("subscribe", reg.status());
  }

  /// In-process consumer registered before Start(): fire time per seq.
  void OnFired(const Event& e) {
    if (!rec_->enabled()) return;
    const int64_t now = NowNs();
    Resolved r = wl_->Resolve(e, submitted_.load(std::memory_order_acquire));
    rec_->Add(SpanName::kFire, now, now, 0, r.attr_seq);
    const uint64_t begin = open_begin_.load(std::memory_order_acquire);
    if (begin != 0 && r.attr_seq >= begin && r.attr_seq - begin < fire_ns_.size()) {
      int64_t expect = 0;
      fire_ns_[r.attr_seq - begin].compare_exchange_strong(expect, now);
    }
  }

  /// Submits `tokens` tokens as fast as credits allow, then waits until
  /// every token is processed and every event delivered.
  PhaseResult RunClosed(uint64_t tokens,
                        std::vector<UpdateDescriptor>* keep = nullptr) {
    PhaseResult p;
    p.begin_seq = next_seq_;
    p.start_ns = NowNs();
    const uint64_t phase = rec_ != nullptr ? rec_->OpenPhase(p.start_ns) : 0;
    const uint64_t end = std::min(kMaxTokens, next_seq_ + tokens);
    while (next_seq_ < end) {
      UpdateDescriptor tok = wl_->Next(next_seq_, &board_.reference());
      if (keep != nullptr && keep->size() < 65536) keep->push_back(tok);
      const int64_t t = NowNs();
      sched_[next_seq_] = t;
      Submit(tok, t, phase);
      SampleQueue(t);
    }
    p.end_seq = next_seq_;
    WaitQuiet(phase, &p.done_ns);
    if (rec_ != nullptr) rec_->ClosePhase(phase, p.done_ns);
    p.tokens_per_s = static_cast<double>(p.end_seq - p.begin_seq) /
                     (static_cast<double>(p.done_ns - p.start_ns) / 1e9);
    return p;
  }

  /// The closed phase: `tokens` split into kClosedRounds rounds, each
  /// drained before the next starts.
  std::vector<PhaseResult> RunClosedRounds(
      uint64_t tokens, std::vector<UpdateDescriptor>* keep = nullptr) {
    std::vector<PhaseResult> rounds;
    for (int i = 0; i < kClosedRounds; ++i) {
      rounds.push_back(RunClosed(tokens / kClosedRounds, keep));
    }
    return rounds;
  }

  /// Submits at a fixed rate for `seconds`; each token is timed from its
  /// scheduled send time, so generator stalls count against the system.
  /// `timed` marks the phase whose delivery latencies are reported.
  PhaseResult RunOpen(double seconds, double rate, bool timed) {
    PhaseResult p;
    const uint64_t n = static_cast<uint64_t>(seconds * rate);
    p.begin_seq = next_seq_;
    if (timed) {
      open_end_.store(next_seq_ + n);
      open_begin_.store(next_seq_, std::memory_order_release);
    }
    p.start_ns = NowNs() + 1'000'000;
    const uint64_t phase = rec_ != nullptr ? rec_->OpenPhase(p.start_ns) : 0;
    const double interval_ns = 1e9 / rate;
    for (uint64_t i = 0; i < n && next_seq_ < kMaxTokens; ++i) {
      const int64_t sched =
          p.start_ns + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
      UpdateDescriptor tok = wl_->Next(next_seq_, &board_.reference());
      sched_[next_seq_] = sched;
      int64_t now = NowNs();
      if (now < sched) {
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(std::chrono::nanoseconds(sched)));
        now = NowNs();
      }
      if (timed) lag_ms_.push_back(static_cast<double>(now - sched) / 1e6);
      Submit(tok, now, phase);
      SampleQueue(now);
    }
    p.end_seq = next_seq_;
    WaitQuiet(phase, &p.done_ns);
    if (rec_ != nullptr) rec_->ClosePhase(phase, p.done_ns);
    p.tokens_per_s = Ratio(static_cast<double>(p.end_seq - p.begin_seq),
                           static_cast<double>(p.done_ns - p.start_ns) / 1e9);
    return p;
  }

  /// DDL over the wire at kDdlRate on its own thread, beside the tokens.
  void StartDdlThread() {
    EnsureDdlClient();
    ddl_stop_.store(false);
    const int64_t start = NowNs();
    ddl_thread_ = std::thread([this, start] {
      RunDdl(start);
    });
  }
  void StopDdlThread() {
    ddl_stop_.store(true);
    if (ddl_thread_.joinable()) ddl_thread_.join();
  }

  Snapshot Snap() const {
    Snapshot s;
    s.t_ns = NowNs();
    s.seq = next_seq_;
    s.tm = sys_->tman->stats();
    s.queue = sys_->tman->task_queue().stats();
    s.server = sys_->server->stats();
    s.gen = gen_->stats();
    s.disk = sys_->db.disk()->stats();
    s.pool = sys_->db.buffer_pool()->stats();
    for (const auto& r : sys_->tman->predicate_index().SignatureStats()) {
      s.sig_candidates += r.stats.candidates;
      s.sig_matches += r.stats.matches;
    }
    s.interpreter_calls = tman::InterpreterEvalCalls();
    return s;
  }

  Tally Count(uint64_t begin_seq, uint64_t end_seq) {
    std::lock_guard<std::mutex> lock(sub_mutex_);
    return board_.Count(begin_seq, end_seq);
  }

  /// Delivery latencies (ms, ascending) of the firings of seqs [begin,
  /// end), from each token's scheduled send time; expected events that
  /// never arrived are +infinity.
  std::vector<double> DeliverLatencies(uint64_t begin, uint64_t end) {
    std::lock_guard<std::mutex> lock(sub_mutex_);
    return board_.Latencies(begin, end, [this](uint64_t seq, int64_t ns) {
      return static_cast<double>(ns - sched_[seq]) / 1e6;
    });
  }

  /// Submit->fire and fire->deliver (ms) of open-phase tokens, per seq,
  /// from the first event each seq produced (traced runs).
  void LatencySplit(std::vector<double>* to_fire, std::vector<double>* to_deliver) {
    std::lock_guard<std::mutex> lock(sub_mutex_);
    for (size_t i = 0; i < fire_ns_.size() && i < first_deliver_.size(); ++i) {
      const int64_t fire = fire_ns_[i].load();
      const int64_t deliver = first_deliver_[i];
      if (fire == 0 || deliver == 0) continue;
      to_fire->push_back(
          static_cast<double>(fire - submit_[open_begin_.load() + i]) / 1e6);
      to_deliver->push_back(static_cast<double>(deliver - fire) / 1e6);
    }
    std::sort(to_fire->begin(), to_fire->end());
    std::sort(to_deliver->begin(), to_deliver->end());
  }

  /// DDL latencies (ms, ascending) of the commands scheduled in [from_ns,
  /// to_ns); a failed command is +infinity.
  std::vector<double> DdlLatencies(int64_t from_ns, int64_t to_ns) {
    std::lock_guard<std::mutex> lock(ddl_mutex_);
    std::vector<double> out;
    for (const DdlSample& s : ddl_samples_) {
      if (s.sched_ns < from_ns || s.sched_ns >= to_ns) continue;
      out.push_back(s.ok ? static_cast<double>(s.latency_ns) / 1e6
                         : std::numeric_limits<double>::infinity());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// DDL commands scheduled from `from_ns` on, and how many failed.
  void DdlCounts(int64_t from_ns, uint64_t* attempted, uint64_t* failed) {
    std::lock_guard<std::mutex> lock(ddl_mutex_);
    for (const DdlSample& s : ddl_samples_) {
      if (s.sched_ns < from_ns) continue;
      ++*attempted;
      if (!s.ok) ++*failed;
    }
  }

  uint64_t submit_errors() const { return submit_errors_; }
  uint64_t events_unsound() {
    std::lock_guard<std::mutex> lock(sub_mutex_);
    return board_.unsound();
  }
  std::vector<std::string> unsound_samples() {
    std::lock_guard<std::mutex> lock(sub_mutex_);
    return board_.unsound_samples();
  }
  uint64_t undelivered() const { return undelivered_; }
  bool drained_in_time() const { return drained_in_time_; }
  uint64_t unprocessed() const { return unprocessed_; }
  const std::vector<double>& lag_ms() const { return lag_ms_; }
  const std::vector<double>& depth_samples() const { return depth_samples_; }
  void set_sample_queue(bool on) { sample_queue_ = on; }
  tman::RemoteClient* generator() { return gen_.get(); }

 private:
  std::unique_ptr<tman::RemoteClient> MakeClient(const std::string& name) {
    tman::RemoteClientOptions o;
    o.client_name = name;
    const uint16_t port = sys_->port;
    o.connector = [port] { return tman::TcpConnect("127.0.0.1", port); };
    auto c = std::make_unique<tman::RemoteClient>(o);
    if (Status s = c->Connect(); !s.ok()) Die("connect " + name, s);
    return c;
  }

  void EnsureDdlClient() {
    if (ddl_ == nullptr) ddl_ = MakeClient("perfbench-ddl");
  }

  void Submit(const UpdateDescriptor& tok, int64_t now, uint64_t phase) {
    submit_[next_seq_] = now;
    submitted_.store(next_seq_, std::memory_order_release);
    Status s = gen_->SubmitUpdate(tok);
    if (rec_ != nullptr) rec_->Add(SpanName::kSubmit, now, NowNs(), phase, next_seq_);
    if (!s.ok()) ++submit_errors_;
    ++next_seq_;
  }

  void SampleQueue(int64_t now) {
    if (!sample_queue_ || now - last_sample_ns_ < 1'000'000) return;
    last_sample_ns_ = now;
    depth_samples_.push_back(
        static_cast<double>(sys_->tman->task_queue().size()));
  }

  /// Drains the generator's acks, then waits until no WAL token is
  /// pending and the subscriber has every event the server pushed.
  void WaitQuiet(uint64_t phase, int64_t* done_ns) {
    const int64_t t0 = NowNs();
    const int64_t deadline = t0 + kDrainDeadlineNs;
    Status d = gen_->Drain();
    if (rec_ != nullptr) rec_->Add(SpanName::kFlush, t0, NowNs(), phase, 0);
    if (!d.ok()) ++submit_errors_;
    while (true) {
      const int64_t now = NowNs();
      const uint64_t pending = sys_->tman->WalPendingTokens();
      const uint64_t pushed = sys_->server->stats().events_pushed;
      const uint64_t got = received_.load(std::memory_order_acquire);
      if (pending == 0 && got >= pushed) {
        *done_ns = now;
        return;
      }
      if (now > deadline) {
        *done_ns = now;
        unprocessed_ += pending;
        undelivered_ += pushed > got ? pushed - got : 0;
        drained_in_time_ = false;
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  void OnDelivered(const Event& e) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(sub_mutex_);
    const uint64_t seq =
        board_.Record(e, submitted_.load(std::memory_order_acquire), now);
    const uint64_t begin = open_begin_.load();
    if (begin != 0 && seq >= begin && seq - begin < first_deliver_.size() &&
        first_deliver_[seq - begin] == 0) {
      first_deliver_[seq - begin] = now;
    }
    received_.fetch_add(1, std::memory_order_release);
  }

  void RunDdl(int64_t start_ns) {
    const double interval_ns = 1e9 / kDdlRate;
    for (uint64_t i = 0;; ++i) {
      const int64_t sched =
          start_ns + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
      if (ddl_stop_.load()) break;
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(sched)));
      const std::string cmd = wl_->DdlCommand(ddl_next_++);
      const int64_t t = NowNs();
      auto r = ddl_->Command(cmd);
      const int64_t end = NowNs();
      if (rec_ != nullptr) rec_->Add(SpanName::kDdl, t, end, 0, 0);
      if (!r.ok() && ddl_errors_logged_++ < 3) {
        std::fprintf(stderr, "ddl '%s' failed: %s\n", cmd.c_str(),
                     r.status().ToString().c_str());
      }
      std::lock_guard<std::mutex> lock(ddl_mutex_);
      ddl_samples_.push_back(DdlSample{sched, end - sched, r.ok()});
    }
  }

  Workload* wl_;
  Recorder* rec_;  // null in untraced runs
  System* sys_ = nullptr;

  std::unique_ptr<tman::RemoteClient> sub_;
  std::unique_ptr<tman::RemoteClient> gen_;
  std::unique_ptr<tman::RemoteClient> ddl_;

  // Generator thread (board_.reference()) and subscriber (the rest of
  // board_, guarded by sub_mutex_).
  Scoreboard board_;
  uint64_t next_seq_ = 1;
  std::unique_ptr<int64_t[]> sched_;   // scheduled send time per seq
  std::unique_ptr<int64_t[]> submit_;  // actual SubmitUpdate call per seq
  std::atomic<uint64_t> submitted_{0};
  uint64_t submit_errors_ = 0;
  uint64_t unprocessed_ = 0;
  uint64_t undelivered_ = 0;
  bool drained_in_time_ = true;
  std::vector<double> lag_ms_;
  bool sample_queue_ = false;
  int64_t last_sample_ns_ = 0;
  std::vector<double> depth_samples_;
  // Open phase seqs [open_begin_, open_end_); 0 until it starts.
  std::atomic<uint64_t> open_begin_{0};
  std::atomic<uint64_t> open_end_{0};
  std::vector<std::atomic<int64_t>> fire_ns_;  // by seq - open_begin_

  // Subscriber thread (guarded by sub_mutex_).
  std::mutex sub_mutex_;
  std::vector<int64_t> first_deliver_;  // by seq - open_begin_
  std::atomic<uint64_t> received_{0};

  // DDL thread (declared last: it uses the members above).
  std::atomic<bool> ddl_stop_{false};
  uint64_t ddl_next_ = 0;
  int ddl_errors_logged_ = 0;
  std::mutex ddl_mutex_;
  std::vector<DdlSample> ddl_samples_;
  std::thread ddl_thread_;
};

// --- per-layer figures ---------------------------------------------------------

const tman::StageSnapshot& StageOf(const Snapshot& s, tman::Stage stage) {
  return s.tm.stages.stage(stage);
}

double StageUs(const Snapshot& a, const Snapshot& b, tman::Stage stage) {
  const auto& x = StageOf(a, stage);
  const auto& y = StageOf(b, stage);
  return Ratio(static_cast<double>(y.total_ns - x.total_ns) / 1e3,
               static_cast<double>(y.items - x.items));
}

/// Encode + decode of UpdateBatchFrames cut from the run's own tokens at
/// the run's mean batch size.
double WireNsPerToken(const std::vector<UpdateDescriptor>& tokens,
                      size_t batch) {
  if (tokens.empty()) return 0;
  batch = std::max<size_t>(1, batch);
  std::vector<tman::UpdateBatchFrame> frames;
  for (size_t i = 0; i < tokens.size(); i += batch) {
    tman::UpdateBatchFrame f;
    f.first_seq = i + 1;
    f.updates.assign(tokens.begin() + i,
                     tokens.begin() + std::min(tokens.size(), i + batch));
    frames.push_back(std::move(f));
  }
  uint64_t done = 0;
  size_t sink = 0;
  const int64_t t0 = NowNs();
  int64_t t1 = t0;
  while (t1 - t0 < 200'000'000) {
    for (const auto& f : frames) {
      std::string payload;
      f.Encode(&payload);
      auto decoded = tman::UpdateBatchFrame::Decode(payload);
      if (decoded.ok()) sink += decoded->updates.size();
    }
    done += tokens.size();
    t1 = NowNs();
  }
  if (sink == 0) return 0;
  return static_cast<double>(t1 - t0) / static_cast<double>(done);
}

uint64_t AlphaRows(tman::TriggerManager* tman, const Workload& wl) {
  uint64_t rows = 0;
  for (const std::string& name : wl.StoredTriggers()) {
    auto h = tman->PinTrigger(name);
    if (!h.ok() || *h == nullptr || (*h)->network == nullptr) continue;
    for (size_t n = 0; n < (*h)->network->num_nodes(); ++n) {
      rows += (*h)->network->memory_size(static_cast<tman::NetworkNodeId>(n));
    }
  }
  return rows;
}

std::string BuildType() {
  std::string s;
#if defined(__OPTIMIZE__)
  s = "optimized";
#else
  s = "unoptimized";
#endif
#if defined(NDEBUG)
  s += "+NDEBUG";
#else
  s += "+asserts";
#endif
  return s;
}

// --- one benchmark run ---------------------------------------------------------

/// Closed-loop tokens_per_s of a system set up with no observer and no
/// in-process consumer: the base of trace.overhead_ratio. It runs the
/// seed's warm-up and closed rounds (and churn_cold's DDL beside them) on a
/// set-up of its own, before the traced system exists.
double UntracedClosedRate(const Args& args,
                          const std::vector<std::string>& commands,
                          uint64_t closed_tokens) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
  Harness h(wl.get(), nullptr, 0);
  double setup = 0;
  std::unique_ptr<System> sys = SetUp(commands, nullptr, &setup);
  if (Status s = wl->Bind(sys->tman.get()); !s.ok()) Die("bind", s);
  h.Connect(sys.get());
  if (wl->concurrent_ddl()) h.StartDdlThread();
  h.RunClosed(wl->warmup_tokens());
  std::vector<double> rates;
  for (const PhaseResult& r : h.RunClosedRounds(closed_tokens)) {
    rates.push_back(r.tokens_per_s);
  }
  h.Close();
  return Median(rates);
}

int RunWorkload(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
  if (wl == nullptr) {
    std::fprintf(stderr, "tman_e2e: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::vector<std::string> commands = wl->SetupCommands();
  std::unique_ptr<Recorder> rec;
  if (args.trace) rec = std::make_unique<Recorder>();

  // Phase sizes. The closed phase submits a fixed number of tokens, the
  // workload's nominal rate times a quarter of the run, so a faster
  // program finishes it sooner instead of doing (and storing) more work.
  // churn_cold then runs its open loop for three quarters of the run, with
  // DDL beside it all along, timing both. The other workloads run the open
  // loop for half the run, then time DDL on the idle server for an eighth:
  // beside their token load, DDL writers starve behind the drivers'
  // shared-lock readers whenever the host slows, and the DDL median jumped
  // from 0.3 ms to 4 ms in such periods.
  const double load_seconds = args.seconds;
  const bool ddl_probe = !wl->concurrent_ddl();
  const uint64_t closed_tokens =
      static_cast<uint64_t>(load_seconds / 4 * wl->nominal_rate());
  const double open_s = load_seconds * (ddl_probe ? 1.0 / 2 : 3.0 / 4);
  Harness h(wl.get(), rec.get(),
            static_cast<uint64_t>(open_s * wl->open_rate()));

  std::vector<double> setup_s;
  double setup_total = 0;
  while (setup_s.size() < kMinSetups || setup_total < kMinSetupSeconds) {
    double s = 0;
    SetUp(commands, nullptr, &s);  // torn down at once
    setup_s.push_back(s);
    setup_total += s;
  }
  const double untraced_rate =
      rec != nullptr ? UntracedClosedRate(args, commands, closed_tokens) : 0;
  std::function<void(tman::TriggerManager*)> hooks;
  if (rec != nullptr) {
    hooks = [&rec, &h](tman::TriggerManager* tm) {
      Recorder* r = rec.get();
      tm->task_queue().set_observer(
          [r](std::string_view ev) { r->OnQueueEvent(ev); });
      tm->events().Register("*", [&h](const Event& e) { h.OnFired(e); });
    };
  }
  double last_setup_s = 0;
  std::unique_ptr<System> sys = SetUp(commands, hooks, &last_setup_s);
  setup_s.push_back(last_setup_s);
  if (Status s = wl->Bind(sys->tman.get()); !s.ok()) Die("bind", s);

  h.Connect(sys.get());
  if (wl->concurrent_ddl()) h.StartDdlThread();

  // Warm-up: excluded from every figure.
  if (rec != nullptr) tman::runtime_stats::set_enabled(false);
  PhaseResult warm = h.RunClosed(wl->warmup_tokens());
  if (rec != nullptr) tman::runtime_stats::set_enabled(true);

  if (rec != nullptr) {
    rec->set_enabled(true);
    h.set_sample_queue(true);
  }
  Snapshot a = h.Snap();
  std::vector<UpdateDescriptor> wire_tokens;
  const std::vector<PhaseResult> rounds =
      h.RunClosedRounds(closed_tokens, rec != nullptr ? &wire_tokens : nullptr);
  Snapshot b = h.Snap();
  PhaseResult open = h.RunOpen(open_s, wl->open_rate(), true);
  Snapshot c = h.Snap();
  h.set_sample_queue(false);
  const uint64_t alpha_rows = rec != nullptr ? AlphaRows(sys->tman.get(), *wl) : 0;
  int64_t ddl_from = open.start_ns, ddl_to = open.done_ns;
  if (ddl_probe) {
    ddl_from = NowNs();
    h.StartDdlThread();
    std::this_thread::sleep_for(std::chrono::duration<double>(load_seconds / 8));
    h.StopDdlThread();
    ddl_to = NowNs();
  }
  h.StopDdlThread();
  const double peak_rss = PeakRssMb();
  const tman::RemoteClientStats gen_final = h.generator()->stats();
  h.Close();

  // --- correctness and failures over the measured window ------------------
  const PhaseResult& first = rounds.front();
  const uint64_t m_begin = first.begin_seq;
  const uint64_t m_end = open.end_seq;
  Tally t = h.Count(m_begin, m_end);
  const uint64_t expected = Tally::Sum(t.expected);
  const uint64_t mismatches = Tally::Sum(t.missing) + Tally::Sum(t.duplicates);
  const double mismatch_ratio = Ratio(static_cast<double>(mismatches),
                                      static_cast<double>(expected));
  const int kS = static_cast<int>(FireKind::kSelect);
  const int kJ = static_cast<int>(FireKind::kJoin);
  const int kA = static_cast<int>(FireKind::kAggregate);
  const uint64_t unsound = h.events_unsound();
  // Duplicate join firings and aggregate divergence are known defects
  // under WAL + persistent staging with two drivers: counted in
  // fire_mismatch_ratio, and in `correct` only beyond their ceilings.
  const double join_dup_share = Ratio(static_cast<double>(t.duplicates[kJ]),
                                      static_cast<double>(t.expected[kJ]));
  const double agg_expected = static_cast<double>(t.expected[kA]);
  const double agg_received =
      static_cast<double>(t.expected[kA] - t.missing[kA] + t.duplicates[kA]);
  const bool correct =
      unsound == 0 && t.missing[kS] == 0 && t.missing[kJ] == 0 &&
      t.duplicates[kS] == 0 && t.unexpected[kS] == 0 &&
      t.unexpected[kJ] == 0 && join_dup_share <= kMaxJoinDuplicateShare &&
      agg_received >= kMinAggregateShare * agg_expected &&
      agg_received <= kMaxAggregateShare * agg_expected;

  uint64_t ddl_attempted = 0, ddl_failed = 0;
  h.DdlCounts(first.start_ns, &ddl_attempted, &ddl_failed);
  const std::vector<double> ddl = h.DdlLatencies(ddl_from, ddl_to);
  const uint64_t attempted = (m_end - m_begin) + ddl_attempted;
  const uint64_t failed = h.submit_errors() + ddl_failed + gen_final.updates_shed +
                          h.unprocessed() + h.undelivered();

  // Every expected firing of the open phase, from its token's scheduled
  // send time; one never delivered is +infinity.
  const std::vector<double> deliver =
      h.DeliverLatencies(open.begin_seq, open.end_seq);
  const auto rate_of = [](const std::vector<PhaseResult>& rs) {
    std::vector<double> v;
    for (const PhaseResult& r : rs) v.push_back(r.tokens_per_s);
    return v;
  };
  const double tokens_per_s = Median(rate_of(rounds));
  std::vector<double> lag = h.lag_ms();
  std::sort(lag.begin(), lag.end());

  Json metrics;
  if (rec == nullptr) {
    metrics.Metric("tokens_per_s", tokens_per_s, "1/s")
        .Metric("deliver_p50_ms", LatencyMs(deliver, 0.5), "ms")
        .Metric("ddl_p50_ms", LatencyMs(ddl, 0.5), "ms")
        .Metric("setup_s", Median(setup_s), "s")
        .Metric("peak_rss_mb", peak_rss, "MB");
  } else {
    const double tokens = static_cast<double>(c.seq - a.seq);
    std::vector<Span> tasks = rec->Collect(SpanName::kTask);
    double busy_closed = 0, busy_all = 0;
    std::vector<double> task_us;
    for (const Span& s : tasks) {
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      if (s.end_ns > a.t_ns && s.start_ns < c.t_ns) {
        busy_all += d;
        task_us.push_back(d / 1e3);
      }
      if (s.end_ns > a.t_ns && s.start_ns < b.t_ns) busy_closed += d;
    }
    std::sort(task_us.begin(), task_us.end());
    double submit_busy = 0;
    for (const Span& s : rec->Collect(SpanName::kSubmit)) {
      if (s.start_ns >= a.t_ns && s.start_ns < c.t_ns) {
        submit_busy += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    const uint32_t drivers =
        tman::ComputeNumDrivers(DeployedOptions().driver_config);
    std::vector<double> to_fire, to_deliver;
    h.LatencySplit(&to_fire, &to_deliver);
    const double depth_max =
        h.depth_samples().empty()
            ? 0
            : *std::max_element(h.depth_samples().begin(), h.depth_samples().end());
    double depth_sum = 0;
    for (double d : h.depth_samples()) depth_sum += d;
    using tman::Stage;
    const auto& fa = StageOf(a, Stage::kFire);
    const auto& fc = StageOf(c, Stage::kFire);
    const double maintain_ns = static_cast<double>(
        StageOf(c, Stage::kMaintain).total_ns - StageOf(a, Stage::kMaintain).total_ns);
    const double match_ns = static_cast<double>(
        StageOf(c, Stage::kMatch).total_ns - StageOf(a, Stage::kMatch).total_ns);
    const double batches = static_cast<double>(c.gen.batches_sent - a.gen.batches_sent);
    const double per_batch =
        Ratio(static_cast<double>(c.gen.updates_sent - a.gen.updates_sent), batches);
    const auto cache_d = [&](uint64_t tman::TriggerCacheStats::*f) {
      return static_cast<double>(c.tm.cache.*f - a.tm.cache.*f);
    };
    const double hits = cache_d(&tman::TriggerCacheStats::hits);
    const double misses = cache_d(&tman::TriggerCacheStats::misses);
    const double pool_hits = static_cast<double>(c.pool.hits - a.pool.hits);
    const double pool_misses = static_cast<double>(c.pool.misses - a.pool.misses);
    const auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };

    metrics
        .Metric("ipc.client.updates_per_batch", per_batch, "count")
        .Metric("ipc.client.credit_stalls", d(a.gen.credit_stalls, c.gen.credit_stalls), "count")
        .Metric("ipc.client.submit_busy_s", submit_busy / 1e9, "s")
        .Metric("ipc.server.frames_per_token",
                Ratio(d(a.server.frames_received, c.server.frames_received), tokens), "count")
        .Metric("ipc.server.events_pushed_per_token",
                Ratio(d(a.server.events_pushed, c.server.events_pushed), tokens), "count")
        .Metric("ipc.wire.ns_per_token",
                WireNsPerToken(wire_tokens, static_cast<size_t>(std::lround(per_batch))), "ns")
        .Metric("wal.sync_rounds_per_1k_tokens",
                Ratio(1000 * d(a.tm.wal.sync_rounds, c.tm.wal.sync_rounds), tokens), "count")
        .Metric("wal.piggyback_ratio",
                Ratio(d(a.tm.wal.piggybacked, c.tm.wal.piggybacked),
                      d(a.tm.wal.commit_calls, c.tm.wal.commit_calls)), "ratio")
        .Metric("wal.bytes_per_token",
                Ratio(d(a.tm.wal.bytes_appended, c.tm.wal.bytes_appended), tokens), "B")
        .Metric("disk.writes_per_token", Ratio(d(a.disk.writes, c.disk.writes), tokens), "count")
        .Metric("disk.syncs_per_token", Ratio(d(a.disk.syncs, c.disk.syncs), tokens), "count")
        .Metric("bufpool.hit_ratio", Ratio(pool_hits, pool_hits + pool_misses), "ratio")
        .Metric("queue.tasks_per_token", Ratio(d(a.queue.pushed, c.queue.pushed), tokens), "count")
        .Metric("queue.depth_max", depth_max, "count")
        .Metric("queue.depth_mean",
                Ratio(depth_sum, static_cast<double>(h.depth_samples().size())), "count")
        .Metric("queue.steals_per_1k_tasks",
                Ratio(1000 * d(a.queue.steals, c.queue.steals), d(a.queue.popped, c.queue.popped)),
                "count")
        .Metric("driver.busy_share",
                Ratio(busy_closed, static_cast<double>(b.t_ns - a.t_ns) * drivers), "ratio")
        .Metric("driver.task_us_p50", Percentile(task_us, 0.5), "us")
        .Metric("driver.task_us_p99", Percentile(task_us, 0.99), "us")
        .Metric("stage.ingest.us_per_token", StageUs(a, c, Stage::kIngest), "us")
        .Metric("stage.maintain.us_per_token", StageUs(a, c, Stage::kMaintain), "us")
        .Metric("stage.match.us_per_token", StageUs(a, c, Stage::kMatch), "us")
        .Metric("stage.fire.us_per_firing", StageUs(a, c, Stage::kFire), "us")
        .Metric("stage.ingest.max_ms", StageOf(c, Stage::kIngest).max_ns / 1e6, "ms")
        .Metric("stage.maintain.max_ms", StageOf(c, Stage::kMaintain).max_ns / 1e6, "ms")
        .Metric("stage.match.max_ms", StageOf(c, Stage::kMatch).max_ns / 1e6, "ms")
        .Metric("stage.fire.max_ms", StageOf(c, Stage::kFire).max_ns / 1e6, "ms")
        .Metric("core.fires_per_token", Ratio(d(a.tm.rule_firings, c.tm.rule_firings), tokens),
                "count")
        .Metric("actions.errors", d(a.tm.actions.action_errors, c.tm.actions.action_errors),
                "count")
        .Metric("core.submit_to_fire_ms_p50", Percentile(to_fire, 0.5), "ms")
        .Metric("core.submit_to_fire_ms_p99", Percentile(to_fire, 0.99), "ms")
        .Metric("core.fire_to_deliver_ms_p50", Percentile(to_deliver, 0.5), "ms")
        .Metric("core.fire_to_deliver_ms_p99", Percentile(to_deliver, 0.99), "ms")
        .Metric("pindex.candidates_per_token",
                Ratio(d(a.sig_candidates, c.sig_candidates), tokens), "count")
        .Metric("pindex.match_ratio",
                Ratio(d(a.sig_matches, c.sig_matches), d(a.sig_candidates, c.sig_candidates)),
                "ratio")
        .Metric("pindex.predicates", static_cast<double>(c.tm.predicates.num_predicates), "count")
        .Metric("expr.interpreter_calls_per_token",
                Ratio(d(a.interpreter_calls, c.interpreter_calls), tokens), "count")
        .Metric("cache.hit_ratio", Ratio(hits, hits + misses), "ratio")
        .Metric("cache.misses_per_token", Ratio(misses, tokens), "count")
        .Metric("cache.evictions_per_token",
                Ratio(cache_d(&tman::TriggerCacheStats::evictions), tokens), "count")
        .Metric("setup.us_per_trigger",
                Median(setup_s) * 1e6 / static_cast<double>(wl->num_triggers()), "us")
        .Metric("network.probes_per_token",
                Ratio(static_cast<double>(fc.batches - fa.batches), tokens), "count")
        .Metric("network.fires_per_probe",
                Ratio(static_cast<double>(fc.items - fa.items),
                      static_cast<double>(fc.batches - fa.batches)), "count")
        .Metric("network.alpha_rows", static_cast<double>(alpha_rows), "count")
        .Metric("deliver_p95_ms", LatencyMs(deliver, 0.95), "ms")
        .Metric("deliver_p99_ms", LatencyMs(deliver, 0.99), "ms")
        .Metric("ddl_p99_ms", LatencyMs(ddl, 0.99), "ms")
        .Metric("loadgen.lag_p99_ms", Percentile(lag, 0.99), "ms")
        .Metric("loadgen.latency_samples", static_cast<double>(deliver.size()), "count")
        .Metric("trace.stage_coverage", Ratio(maintain_ns + match_ns, busy_all), "ratio")
        .Metric("trace.overhead_ratio",
                Ratio(tokens_per_s, untraced_rate), "ratio")
        .Metric("fire_mismatch_ratio", mismatch_ratio, "ratio")
        .Metric("error_rate", Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                "ratio");
    std::string path = args.out_dir + "/spans-" + wl->name() + ".tsv";
    if (!rec->Write(path)) {
      std::fprintf(stderr, "tman_e2e: cannot write %s\n", path.c_str());
    }
  }

  // Everything a reader needs to judge the run besides the headline.
  const auto kinds = [](const uint64_t (&v)[3]) {
    Json j;
    j.Int("select", v[0]).Int("join", v[1]).Int("aggregate", v[2]);
    return j;
  };
  Json firings;
  firings.Obj("expected", kinds(t.expected))
      .Obj("missing", kinds(t.missing))
      .Obj("duplicates", kinds(t.duplicates))
      .Obj("unexpected", kinds(t.unexpected))
      .Int("unsound_events", unsound);
  std::string unsound_text;
  for (const std::string& s : h.unsound_samples()) unsound_text += s + "; ";
  Json phases;
  phases.Num("warmup_tokens", static_cast<double>(warm.end_seq - warm.begin_seq))
      .Num("closed_tokens", static_cast<double>(rounds.back().end_seq - m_begin))
      .Num("closed_seconds",
           static_cast<double>(rounds.back().done_ns - rounds.front().start_ns) / 1e9)
      .Num("open_tokens", static_cast<double>(open.end_seq - open.begin_seq))
      .Num("open_rate", wl->open_rate())
      .Bool("drained_in_time", h.drained_in_time())
      .Arr("closed_round_tokens_per_s", rate_of(rounds));
  const auto percentiles = [](const std::vector<double>& latencies) {
    Json j;
    j.Num("p50", LatencyMs(latencies, 0.5))
        .Num("p95", LatencyMs(latencies, 0.95))
        .Num("p99", LatencyMs(latencies, 0.99));
    return j;
  };
  Json detail;
  detail.Str("workload", wl->name())
      .Int("seed", args.seed)
      .Bool("trace", args.trace)
      .Str("build_type", BuildType())
      .Str("compiler", __VERSION__)
      .Int("triggers", wl->num_triggers())
      .Obj("phases", phases)
      .Obj("firings", firings)
      .Num("fire_mismatch_ratio", mismatch_ratio)
      .Num("join_duplicate_share", join_dup_share)
      .Num("aggregate_received_share", Ratio(agg_received, agg_expected))
      .Num("error_rate", Ratio(static_cast<double>(failed), static_cast<double>(attempted)))
      .Int("deliver_samples", deliver.size())
      .Int("ddl_samples", ddl.size())
      .Obj("deliver_ms", percentiles(deliver))
      .Obj("ddl_ms", percentiles(ddl))
      .Num("loadgen_lag_p99_ms", Percentile(lag, 0.99))
      .Int("setups", setup_s.size())
      .Arr("setup_s_all", setup_s)
      .Num("setup_s_min", *std::min_element(setup_s.begin(), setup_s.end()))
      .Num("setup_s_max", *std::max_element(setup_s.begin(), setup_s.end()))
      .Str("unsound_samples", unsound_text);
  Json out;
  out.Bool("correct", correct)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Obj("metrics", metrics)
      .Obj("detail", detail);
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return 0;
}

// --- cross-staging-mode replay ---------------------------------------------------

/// Replays join_window's input for `oids` order/shipment pairs through one
/// driver in each staging mode and prints the firing mismatch against the
/// sequential reference. In-process (no TCP): the point is the staging
/// path, not the wire.
int RunReplayModes(const Args& args) {
  struct Mode {
    const char* name;
    bool wal;
    bool persistent;
  };
  const Mode modes[] = {{"memory", false, false},
                        {"wal", true, false},
                        {"persistent", false, true},
                        {"wal+persistent", true, true}};
  for (const Mode& mode : modes) {
    std::unique_ptr<Workload> wl = MakeWorkload("join_window", args.seed);
    Scoreboard board(wl.get());
    tman::Database db;
    tman::TriggerManagerOptions o;
    o.durable_wal = mode.wal;
    o.persistent_queue = mode.persistent;
    o.driver_config.num_cpus = 1;
    tman::TriggerManager tm(&db, o);
    if (Status s = tm.Open(); !s.ok()) Die("open", s);
    for (const std::string& cmd : wl->SetupCommands()) {
      auto r = tm.ExecuteCommand(cmd);
      if (!r.ok()) Die("setup", r.status());
    }
    if (Status s = wl->Bind(&tm); !s.ok()) Die("bind", s);
    // The stream up to the shipment of the last oid: one join firing per
    // oid.
    std::vector<UpdateDescriptor> tokens;
    const Reference& ref = board.reference();
    for (uint64_t seq = 1, joins = 0; joins < kReplayOids; ++seq) {
      tokens.push_back(wl->Next(seq, &board.reference()));
      for (uint64_t i = ref.begin_of(seq); i < ref.begin_of(seq + 1); ++i) {
        if (KindOfKey(ref.key(i)) == FireKind::kJoin) ++joins;
      }
    }
    const uint64_t n = tokens.size();
    std::mutex mu;
    tm.events().Register("*", [&](const Event& e) {
      std::lock_guard<std::mutex> lock(mu);
      board.Record(e, n, NowNs());
    });
    if (Status s = tm.Start(); !s.ok()) Die("start", s);
    for (size_t i = 0; i < tokens.size(); i += 256) {
      std::vector<UpdateDescriptor> batch(
          tokens.begin() + i, tokens.begin() + std::min(tokens.size(), i + 256));
      if (Status s = tm.SubmitUpdateBatch(batch); !s.ok()) Die("submit", s);
    }
    const int64_t deadline = NowNs() + kDrainDeadlineNs;
    while (NowNs() < deadline) {
      tm.Drain();
      if (tm.WalPendingTokens() == 0 && tm.task_queue().empty()) break;
    }
    const uint64_t unprocessed = tm.WalPendingTokens();
    tm.Stop();
    std::lock_guard<std::mutex> lock(mu);
    const Tally t = board.Count(1, n + 1);
    const int kJ = static_cast<int>(FireKind::kJoin);
    const int kA = static_cast<int>(FireKind::kAggregate);
    Json j;
    j.Str("mode", mode.name)
        .Int("seed", args.seed)
        .Int("oids", kReplayOids)
        .Int("tokens", n)
        .Int("join_expected", t.expected[kJ])
        .Int("join_fired",
             t.expected[kJ] - t.missing[kJ] + t.duplicates[kJ] + t.unexpected[kJ])
        .Int("join_duplicates", t.duplicates[kJ])
        .Int("join_missing", t.missing[kJ])
        .Int("aggregate_expected", t.expected[kA])
        .Int("aggregate_fired", t.expected[kA] - t.missing[kA] + t.duplicates[kA])
        .Int("aggregate_surplus", t.duplicates[kA])
        .Int("aggregate_missing", t.missing[kA])
        .Int("unsound_events", board.unsound())
        .Int("unprocessed_tokens", unprocessed)
        .Num("fire_mismatch_ratio",
             Ratio(static_cast<double>(Tally::Sum(t.missing) + Tally::Sum(t.duplicates)),
                   static_cast<double>(Tally::Sum(t.expected))));
    std::printf("%s\n", j.str().c_str());
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tman_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n"
                 "       tman_e2e --replay-modes --seed N\n");
    return 2;
  }
  if (args.replay_modes) return perfbench::RunReplayModes(args);
  return perfbench::RunWorkload(args);
}
