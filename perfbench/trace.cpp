#include "trace.h"

#include <cstdio>
#include <utility>

namespace perfbench {

std::uint64_t SpanLog::add(std::string name, std::uint64_t request,
                           std::uint64_t parent, Clock::time_point start,
                           double dur_s) {
  Span span;
  span.name = std::move(name);
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.start_s = std::chrono::duration<double>(start - epoch_).count();
  span.dur_s = dur_s;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::map<std::string, std::vector<double>> SpanLog::self_times() const {
  // The children of one span are laid end to end and never overlap, so the
  // part of the parent they cover is the sum of their durations.
  std::vector<double> covered(spans_.size() + 1, 0.0);
  for (const Span& span : spans_) {
    if (span.parent != 0) covered[span.parent] += span.dur_s;
  }
  std::map<std::string, std::vector<double>> self;
  for (const Span& span : spans_) {
    self[span.name].push_back(span.dur_s - covered[span.id]);
  }
  return self;
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 const std::string& host) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string escaped;
  for (const char c : host) {
    if (c == '"' || c == '\\') escaped.push_back('\\');
    escaped.push_back(c);
  }
  std::fprintf(f, "{\"otherData\": {\"host\": \"%s\"},\n\"traceEvents\": [",
               escaped.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Concurrent requests overlap in time: spread them over lanes so the
    // viewer nests each request's children under its own root. Probes get
    // lane 0.
    const unsigned long long lane = s.request == 0 ? 0 : 1 + s.request % 8;
    std::fprintf(f,
                 "%s\n {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu}}",
                 i == 0 ? "" : ",", s.name.c_str(), lane, s.start_s * 1e6,
                 s.dur_s * 1e6, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
