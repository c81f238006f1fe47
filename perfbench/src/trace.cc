#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::string LayerOf(const char* name) {
  std::string s(name);
  size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

double DurationMs(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t op)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  ThreadBuffer& local = tracer_->Local();
  span_.name = name;
  span_.op = op;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = local.stack.empty() ? 0 : local.stack.back();
  local.stack.push_back(span_.id);
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  ThreadBuffer& local = tracer_->Local();
  local.stack.pop_back();
  local.spans.push_back(span_);
}

uint64_t Tracer::NextSerial() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Tracer::ThreadBuffer& Tracer::Local() {
  thread_local uint64_t owner = 0;
  thread_local ThreadBuffer* buffer = nullptr;
  if (owner != serial_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    owner = serial_;
  }
  return *buffer;
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::map<std::string, SpanTotals> Tracer::TotalsByName() const {
  std::vector<Span> spans = Collect();
  std::unordered_map<uint64_t, double> child_ms;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += DurationMs(s);
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    SpanTotals& t = totals[s.name];
    ++t.count;
    const double ms = DurationMs(s);
    t.busy_ms += ms;
    auto it = child_ms.find(s.id);
    t.self_ms += ms - (it == child_ms.end() ? 0.0 : it->second);
  }
  return totals;
}

std::map<std::string, SpanTotals> Tracer::TotalsByLayer() const {
  std::vector<Span> spans = Collect();
  std::unordered_map<uint64_t, const Span*> by_id;
  std::unordered_map<uint64_t, double> child_ms;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) child_ms[s.parent] += DurationMs(s);
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    const std::string layer = LayerOf(s.name);
    SpanTotals& t = totals[layer];
    ++t.count;
    const double ms = DurationMs(s);
    auto child = child_ms.find(s.id);
    t.self_ms += ms - (child == child_ms.end() ? 0.0 : child->second);
    bool outermost = true;
    for (uint64_t p = s.parent; p != 0;) {
      auto it = by_id.find(p);
      if (it == by_id.end()) break;
      if (LayerOf(it->second->name) == layer) {
        outermost = false;
        break;
      }
      p = it->second->parent;
    }
    if (outermost) t.busy_ms += ms;
  }
  return totals;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              size_t max_spans) const {
  std::vector<Span> spans = Collect();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  for (const Span& s : spans) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  const size_t n = spans.size() < max_spans ? spans.size() : max_spans;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, LayerOf(s.name).c_str(),
                 static_cast<unsigned long long>(s.op),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "],\"otherData\":{\"spans\":%zu,\"written\":%zu}}\n",
               spans.size(), n);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
