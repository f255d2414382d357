#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench.h"

namespace teal_bench {

double percentile(std::vector<double> samples, int pct) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  const std::size_t p = static_cast<std::size_t>(std::clamp(pct, 0, 100));
  const std::size_t rank = std::max<std::size_t>(1, (p * n + 99) / 100);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double v : samples) sum += v;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

Clock::time_point due_time(Clock::time_point start, std::uint64_t i, double rps) {
  return start + std::chrono::nanoseconds(std::llround(static_cast<double>(i) * 1e9 / rps));
}

double lateness_ms(Clock::time_point due, Clock::time_point sent) {
  return std::chrono::duration<double, std::milli>(sent - due).count();
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

bool selftest() {
  bool ok = true;
  auto expect = [&ok](const char* what, double got, double want) {
    if (got != want) {
      std::printf("selftest FAIL %s: got %.17g want %.17g\n", what, got, want);
      ok = false;
    }
  };
  const std::vector<double> five = {50, 15, 40, 20, 35};  // sorted: 15 20 35 40 50
  expect("p0 of 5", percentile(five, 0), 15);
  expect("p30 of 5", percentile(five, 30), 20);
  expect("p40 of 5", percentile(five, 40), 20);
  expect("p50 of 5", percentile(five, 50), 35);
  expect("p100 of 5", percentile(five, 100), 50);
  std::vector<double> thousand(1000);
  for (int i = 0; i < 1000; ++i) thousand[static_cast<std::size_t>(i)] = 1000 - i;  // 1..1000
  expect("p50 of 1..1000", percentile(thousand, 50), 500);
  expect("p90 of 1..1000", percentile(thousand, 90), 900);
  expect("p99 of 1..1000", percentile(thousand, 99), 990);
  const std::vector<double> to101(thousand.end() - 101, thousand.end());  // 101..1
  expect("p99 of 1..101", percentile(to101, 99), 100);
  expect("p50 of {}", percentile({}, 50), 0);

  const Clock::time_point t0{};
  expect("due(0) @2000/s", lateness_ms(t0, due_time(t0, 0, 2000.0)), 0.0);
  expect("due(3) @2000/s", lateness_ms(t0, due_time(t0, 3, 2000.0)), 1.5);
  expect("due(120) @120/s", lateness_ms(t0, due_time(t0, 120, 120.0)), 1000.0);
  expect("due(1) @3/s", lateness_ms(t0, due_time(t0, 1, 3.0)), 333.333333);
  expect("late 250us", lateness_ms(due_time(t0, 1, 4000.0), t0 + std::chrono::microseconds(500)),
         0.25);

  expect("fnv1a('')", static_cast<double>(fnv1a("", 0) == kFnvOffset), 1);
  expect("fnv1a('a')", static_cast<double>(fnv1a("a", 1) == 0xaf63dc4c8601ec8cull), 1);
  expect("fnv1a chain", static_cast<double>(fnv1a("b", 1, fnv1a("a", 1)) == fnv1a("ab", 2)), 1);
  return ok;
}

namespace {

std::uint32_t this_thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

std::int64_t ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

}  // namespace

Tracer::Tracer(std::size_t capacity) : spans_(capacity) {}

int Tracer::claim() {
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  return static_cast<int>(slot);
}

int Tracer::open(const char* name, int parent, std::int64_t request) {
  const int slot = claim();
  if (slot >= 0) {
    spans_[static_cast<std::size_t>(slot)] =
        Span{name, ns_of(Clock::now()), 0, parent, this_thread_id(), request};
  }
  return slot;
}

void Tracer::close(int slot) {
  if (slot >= 0) spans_[static_cast<std::size_t>(slot)].end_ns = ns_of(Clock::now());
}

void Tracer::add(const char* name, Clock::time_point start, Clock::time_point end, int parent,
                 std::int64_t request) {
  const int slot = claim();
  if (slot >= 0) {
    spans_[static_cast<std::size_t>(slot)] =
        Span{name, ns_of(start), ns_of(end), parent, this_thread_id(), request};
  }
}

std::size_t Tracer::recorded() const { return std::min(next_.load(), spans_.size()); }

std::vector<double> Tracer::durations_ms(const char* name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < recorded(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns != 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  f << "{\"traceEvents\":[";
  std::int64_t origin = 0;
  for (std::size_t i = 0; i < recorded(); ++i) {
    origin = i == 0 ? spans_[i].start_ns : std::min(origin, spans_[i].start_ns);
  }
  char line[256];
  bool first = true;
  for (std::size_t i = 0; i < recorded(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"slot\":%zu,\"parent\":%d,\"request\":%lld}}",
                  first ? "" : ",", s.name, s.thread,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                  static_cast<long long>(s.request));
    f << line;
    first = false;
  }
  f << "\n]}\n";
}

}  // namespace teal_bench
