#include "recorder.h"

#include <cstdio>

namespace perfbench {

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kPhase: return "phase";
    case SpanName::kSubmit: return "client.submit";
    case SpanName::kFlush: return "client.drain";
    case SpanName::kDdl: return "client.command";
    case SpanName::kTask: return "driver.task";
    case SpanName::kFire: return "fire";
  }
  return "?";
}

namespace {
std::atomic<uint64_t> next_recorder_id{1};
}  // namespace

Recorder::Recorder() : id_(next_recorder_id.fetch_add(1)) {}

Recorder::ThreadBuf* Recorder::Local() {
  struct Slot {
    uint64_t owner = 0;  // id_ of the recorder owning `buf`
    ThreadBuf* buf = nullptr;
  };
  thread_local Slot slot;
  if (slot.owner != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto buf = std::make_unique<ThreadBuf>();
    buf->index = static_cast<uint32_t>(bufs_.size());
    slot.buf = buf.get();
    slot.owner = id_;
    bufs_.push_back(std::move(buf));
  }
  return slot.buf;
}

void Recorder::Add(SpanName name, int64_t start_ns, int64_t end_ns,
                   uint64_t parent, uint64_t seq) {
  if (!enabled()) return;
  ThreadBuf* buf = Local();
  std::lock_guard<std::mutex> lock(buf->mutex);
  buf->spans.push_back(Span{name, buf->index, start_ns, end_ns, parent, seq});
}

uint64_t Recorder::OpenPhase(int64_t start_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  phases_.push_back(Span{SpanName::kPhase, 0, start_ns, 0, 0, 0});
  return phases_.size();
}

void Recorder::ClosePhase(uint64_t id, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= 1 && id <= phases_.size()) phases_[id - 1].end_ns = end_ns;
}

void Recorder::OnQueueEvent(std::string_view event) {
  if (event.empty()) return;
  const bool claim = event[0] == 's' || (event[0] == 'p' && event[1] == 'o');
  const bool done = event == "done";
  if (!claim && !done) return;  // pushes run on producer threads
  const int64_t now = NowNs();
  ThreadBuf* buf = Local();
  if (claim) {
    if (buf->claimed++ == 0) buf->cursor_ns = now;
    return;
  }
  if (buf->claimed == 0) return;
  --buf->claimed;
  const int64_t start = buf->cursor_ns;
  buf->cursor_ns = now;
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(buf->mutex);
  buf->spans.push_back(Span{SpanName::kTask, buf->index, start, now, 0, 0});
}

std::vector<Span> Recorder::Collect(SpanName name) const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buf : bufs_) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    for (const Span& s : buf->spans) {
      if (s.name == name) out.push_back(s);
    }
  }
  return out;
}

bool Recorder::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\tseq\tthread\n");
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t epoch = phases_.empty() ? 0 : phases_.front().start_ns;
  uint64_t id = 0;
  for (const Span& s : phases_) {
    std::fprintf(f, "%llu\t%s\t%lld\t%lld\t0\t0\t0\n",
                 static_cast<unsigned long long>(++id), SpanNameText(s.name),
                 static_cast<long long>(s.start_ns - epoch),
                 static_cast<long long>(s.end_ns - epoch));
  }
  for (const auto& buf : bufs_) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    for (const Span& s : buf->spans) {
      std::fprintf(f, "%llu\t%s\t%lld\t%lld\t%llu\t%llu\t%u\n",
                   static_cast<unsigned long long>(++id),
                   SpanNameText(s.name), static_cast<long long>(s.start_ns - epoch),
                   static_cast<long long>(s.end_ns - epoch),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.seq), s.thread);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
