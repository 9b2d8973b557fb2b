#include "src/trace/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/common/check.h"

namespace affsched {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kJobArrival:
      return "job_arrival";
    case TraceEventKind::kJobCompletion:
      return "job_completion";
    case TraceEventKind::kSwitchStart:
      return "switch_start";
    case TraceEventKind::kDispatch:
      return "dispatch";
    case TraceEventKind::kResume:
      return "resume";
    case TraceEventKind::kPreempt:
      return "preempt";
    case TraceEventKind::kHold:
      return "hold";
    case TraceEventKind::kYield:
      return "yield";
    case TraceEventKind::kRelease:
      return "release";
    case TraceEventKind::kThreadComplete:
      return "thread_complete";
    case TraceEventKind::kDeadlineMiss:
      return "deadline_miss";
  }
  return "unknown";
}

RingTrace::RingTrace(size_t capacity) : capacity_(capacity) {
  AFF_CHECK(capacity_ > 0);
  ring_.reserve(std::min<size_t>(capacity_, 4096));
}

void RingTrace::Record(const TraceEvent& event) {
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[count_ % capacity_] = event;
  }
  ++count_;
}

std::vector<TraceEvent> RingTrace::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  if (count_ <= capacity_) {
    out = ring_;
  } else {
    const size_t head = count_ % capacity_;
    out.insert(out.end(), ring_.begin() + static_cast<long>(head), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<long>(head));
  }
  return out;
}

std::string RingTrace::ToCsv() const {
  std::ostringstream out;
  out << "time_us,kind,proc,job,worker,affine\n";
  for (const TraceEvent& e : Events()) {
    char line[160];
    std::snprintf(line, sizeof(line), "%.3f,%s,%lld,%lld,%llu,%d\n",
                  ToMicroseconds(e.when), TraceEventKindName(e.kind),
                  e.proc == SIZE_MAX ? -1LL : static_cast<long long>(e.proc),
                  e.job == kInvalidJobId ? -1LL : static_cast<long long>(e.job),
                  static_cast<unsigned long long>(e.worker), e.affine ? 1 : 0);
    out << line;
  }
  if (dropped() > 0) {
    // Trailing comment so downstream consumers can detect a truncated trace.
    out << "# dropped=" << dropped() << "\n";
  }
  return out.str();
}

std::string RingTrace::RenderGantt(size_t num_procs, SimTime start, SimTime end,
                                   size_t columns) const {
  AFF_CHECK(end > start);
  AFF_CHECK(columns > 0);
  // grid[proc][col]: last state seen at or before the bucket.
  std::vector<std::string> grid(num_procs, std::string(columns, '.'));
  // Track occupancy by replaying events in order.
  std::vector<char> state(num_procs, '.');
  const double span = static_cast<double>(end - start);
  size_t cursor = 0;  // next column to fill

  auto fill_until = [&](SimTime t) {
    double frac = static_cast<double>(t - start) / span;
    frac = std::clamp(frac, 0.0, 1.0);
    const size_t col = static_cast<size_t>(frac * static_cast<double>(columns));
    for (; cursor < col && cursor < columns; ++cursor) {
      for (size_t p = 0; p < num_procs; ++p) {
        grid[p][cursor] = state[p];
      }
    }
  };

  auto job_char = [](JobId job) -> char {
    if (job == kInvalidJobId) {
      return '.';
    }
    if (job < 10) {
      return static_cast<char>('0' + job);
    }
    return static_cast<char>('A' + (job - 10) % 26);
  };

  for (const TraceEvent& e : Events()) {
    if (e.when < start) {
      continue;
    }
    if (e.when > end) {
      break;
    }
    fill_until(e.when);
    if (e.proc >= num_procs) {
      continue;
    }
    switch (e.kind) {
      case TraceEventKind::kSwitchStart:
        state[e.proc] = '*';
        break;
      case TraceEventKind::kDispatch:
      case TraceEventKind::kResume:
        state[e.proc] = job_char(e.job);
        break;
      case TraceEventKind::kHold:
      case TraceEventKind::kYield:
        state[e.proc] = static_cast<char>(std::tolower(job_char(e.job)));
        // Digits have no lowercase: mark held processors with a distinct glyph.
        if (e.job != kInvalidJobId && e.job < 10) {
          state[e.proc] = static_cast<char>('a' + e.job % 26);
        }
        break;
      case TraceEventKind::kPreempt:
      case TraceEventKind::kRelease:
        state[e.proc] = '.';
        break;
      default:
        break;
    }
  }
  fill_until(end);

  std::ostringstream out;
  out << "Gantt (" << FormatDuration(start) << " .. " << FormatDuration(end)
      << "; digits = running job, letters = holding idle, '*' = switching, '.' = free)\n";
  for (size_t p = 0; p < num_procs; ++p) {
    char label[24];  // "p", up to 20 digits of size_t, " ", NUL
    std::snprintf(label, sizeof(label), "p%02zu ", p);
    out << label << grid[p] << "\n";
  }
  return out.str();
}

}  // namespace affsched
