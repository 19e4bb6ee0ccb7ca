// Span recorder, Chrome trace-event export and correctness bookkeeping.
#include <cstdio>
#include <exception>
#include <fstream>

#include "bench.h"

namespace sqbench {
namespace {

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::Begin(std::string_view name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::string(name);
  span.start_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                            origin_)
                      .count();
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int id) {
  if (!enabled_ || id < 0) return;
  spans_[id].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_us[span.parent] += span.end_us - span.start_us;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double us = spans_[i].end_us - spans_[i].start_us - child_us[i];
    self[LayerOf(spans_[i].name)] += us / 1000.0;
  }
  return self;
}

double Tracer::LayerCoveredMs(int root) const {
  double us = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == root && LayerOf(span.name) != "bench") {
      us += span.end_us - span.start_us;
    }
  }
  return us / 1000.0;
}

bool Tracer::WriteChrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                  s.start_us, s.end_us - s.start_us);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << JsonEscape(s.name)
        << "\",\"cat\":\"" << JsonEscape(LayerOf(s.name)) << "\"," << buf
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Checker::Log(const std::string& line) {
  if (logged_++ < 20) std::fprintf(stderr, "sqbench: %s\n", line.c_str());
}

void Checker::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_checks_;
  Log("check failed: " + what);
}

bool Checker::Op(const std::string& what, const std::function<void()>& fn) {
  ++attempted_;
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    ++failed_ops_;
    Log("operation failed: " + what + ": " + e.what());
    return false;
  }
}

}  // namespace sqbench
