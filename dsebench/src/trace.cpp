#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace dsebench {

std::size_t Spans::open(std::string name, std::uint32_t run) {
  const double now =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  Span span;
  span.name = std::move(name);
  span.start = now;
  span.end = now;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.run = run;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Spans::close(std::size_t index) {
  spans_[index].end =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, double> Spans::self_seconds() const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_cover[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end - spans_[i].start - child_cover[i];
  }
  return self;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f", s.start * 1e6,
                  (s.end - s.start) * 1e6);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1," << times << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"run\":" << s.run << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void CountingSink::on_event(const aspmt::obs::Event& event) {
  using aspmt::obs::EventKind;
  switch (event.kind) {
    case EventKind::SolveStart:
      open_solve_ns_[event.worker] = event.t_ns;
      break;
    case EventKind::SolveEnd: {
      const auto it = open_solve_ns_.find(event.worker);
      if (it == open_solve_ns_.end()) break;
      counts_.solve_seconds += static_cast<double>(event.t_ns - it->second) * 1e-9;
      ++counts_.solves;
      open_solve_ns_.erase(it);
      break;
    }
    case EventKind::ArchiveEvict:
      counts_.evictions += static_cast<std::uint64_t>(event.a);
      break;
    default:
      break;
  }
}

}  // namespace dsebench
