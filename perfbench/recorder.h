// Span recording for the traced run. Spans are appended to per-thread
// buffers (no shared lock on the hot path) and written out once, when the
// run ends. Recording is gated by flags so the hooks can stay installed
// while an untraced comparison phase runs.

#ifndef PERFBENCH_RECORDER_H_
#define PERFBENCH_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : uint8_t {
  kPhase,      // one benchmark phase (root)
  kSubmit,     // RemoteClient::SubmitUpdate on the generator
  kFlush,      // RemoteClient::Flush / Drain on the generator
  kDdl,        // RemoteClient::Command on the DDL thread
  kTask,       // one task, pop -> done, on a driver thread
  kFire,       // an event raised in-process (instant)
};

const char* SpanNameText(SpanName name);

struct Span {
  SpanName name;
  uint32_t thread;  // recorder-assigned thread index
  int64_t start_ns;
  int64_t end_ns;
  uint64_t parent;  // id of the causing span (0 = root)
  uint64_t seq;     // token seq, 0 when the span covers no single token
};

class Recorder {
 public:
  Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Add(SpanName name, int64_t start_ns, int64_t end_ns, uint64_t parent,
           uint64_t seq);

  /// Opens a phase span and returns its id, the parent of the client
  /// spans recorded during the phase; ClosePhase sets its end.
  uint64_t OpenPhase(int64_t start_ns);
  void ClosePhase(uint64_t id, int64_t end_ns);

  /// TaskQueue observer: "pop:*" / "steal:*" claim tasks on the calling
  /// driver thread, "done" ends the oldest claimed one. Tasks claimed as
  /// one batch run back to back, so each starts where the previous ended.
  void OnQueueEvent(std::string_view event);

  /// Every recorded span of one kind (busy time, per-task latency).
  std::vector<Span> Collect(SpanName name) const;

  /// Writes every span as a tab-separated `id name start_ns end_ns parent
  /// seq thread` line, times relative to the first phase's start. Ids are
  /// assigned in output order; phase ids are the ones OpenPhase returned.
  bool Write(const std::string& path) const;

 private:
  struct ThreadBuf {
    uint32_t index = 0;
    std::mutex mutex;  // uncontended: only Collect/Write read other buffers
    std::vector<Span> spans;
    // Queue observer state: tasks claimed but not done yet, and where the
    // next one started.
    uint64_t claimed = 0;
    int64_t cursor_ns = 0;
  };

  ThreadBuf* Local();

  const uint64_t id_;  // process-unique; keys the thread-local buffer slot
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  // guards bufs_ and phases_
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::vector<Span> phases_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RECORDER_H_
