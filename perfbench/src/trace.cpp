#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "libcache/json.hpp"

namespace perfbench {

using dagmap::libcache::json_quote;

namespace {

thread_local std::vector<int> t_stack;
thread_local int t_inherited_parent = -1;

std::string fixed3(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void set_thread_parent(int parent) { t_inherited_parent = parent; }

int Tracer::open(const char* name, const std::string& id, bool call) {
  double start = now_s();
  int parent = t_stack.empty() ? t_inherited_parent : t_stack.back();
  std::uint64_t thread_key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, fresh] = thread_ids_.try_emplace(
      thread_key, static_cast<std::uint32_t>(thread_ids_.size()));
  SpanRecord r;
  r.name = name;
  r.id = !id.empty() || parent < 0 ? id : spans_[parent].id;
  r.start = start;
  r.end = start;
  r.parent = parent;
  r.tid = it->second;
  r.call = call;
  spans_.push_back(std::move(r));
  int index = static_cast<int>(spans_.size()) - 1;
  t_stack.push_back(index);
  return index;
}

void Tracer::close(int index) {
  double end = now_s();
  auto pos = std::find(t_stack.rbegin(), t_stack.rend(), index);
  if (pos != t_stack.rend()) t_stack.erase(std::next(pos).base());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].end = end;
}

void Tracer::record(const char* name, const std::string& id, double start,
                    double end, int parent, bool call) {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint32_t tid = parent >= 0 ? spans_[parent].tid : 0;
  spans_.push_back({name, id, start, end, parent, tid, call});
}

void Tracer::attach_profile(int parent, const dagmap::obs::ProfileData& profile,
                            const std::string& prefix) {
  if (parent < 0 || !profile.collected) return;
  std::uint32_t owner = 0;
  for (const auto& [tid, name] : profile.thread_names)
    if (name == "main") owner = tid;
  std::lock_guard<std::mutex> lock(mutex_);
  double base = spans_[parent].start;
  for (const dagmap::obs::ProfileEvent& e : profile.events) {
    if (e.tid != owner || e.depth != 0) continue;
    SpanRecord r;
    r.name = prefix + "/" + e.name;
    r.id = spans_[parent].id;
    r.start = base + e.start_us * 1e-6;
    r.end = r.start + e.dur_us * 1e-6;
    r.parent = parent;
    r.tid = spans_[parent].tid;
    r.call = false;
    spans_.push_back(std::move(r));
  }
}

bool Tracer::in_subtree(int span, int root) const {
  for (int s = span; s >= 0; s = spans_[s].parent)
    if (s == root) return true;
  return root < 0;
}

double Tracer::coverage(int span) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (span < 0) return 0.0;
  const SpanRecord& outer = spans_[span];
  std::vector<std::pair<double, double>> iv;
  for (int i = 0; i < static_cast<int>(spans_.size()); ++i) {
    if (i == span || !spans_[i].call || !in_subtree(i, span)) continue;
    iv.emplace_back(std::max(spans_[i].start, outer.start),
                    std::min(spans_[i].end, outer.end));
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0, lo = 0.0, hi = -1.0;
  for (auto [a, b] : iv) {
    if (b <= a) continue;
    if (a > hi) {
      if (hi > lo) covered += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) covered += hi - lo;
  double wall = outer.end - outer.start;
  return wall > 0 ? covered / wall : 0.0;
}

std::map<std::string, double> Tracer::self_times(int root,
                                                 bool calls_only) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0 && s.tid == spans_[s.parent].tid)
      child[s.parent] += s.end - s.start;
  std::map<std::string, double> out;
  for (int i = 0; i < static_cast<int>(spans_.size()); ++i) {
    const SpanRecord& s = spans_[i];
    bool is_call = s.call || (s.parent >= 0 && spans_[s.parent].call);
    if ((is_call || !calls_only) && in_subtree(i, root))
      out[s.name] += std::max(0.0, s.end - s.start - child[i]);
  }
  return out;
}

std::map<std::string, double> Tracer::totals(int root) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> out;
  for (int i = 0; i < static_cast<int>(spans_.size()); ++i)
    if (in_subtree(i, root))
      out[spans_[i].name] += spans_[i].end - spans_[i].start;
  return out;
}

std::string Tracer::chrome_trace_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (const SpanRecord& s : spans_) t0 = std::min(t0, s.start);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out += i ? ",\n" : "\n";
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.tid) +
           ",\"cat\":\"" + (s.call ? "call" : "group") +
           "\",\"name\":" + json_quote(s.name) +
           ",\"ts\":" + fixed3((s.start - t0) * 1e6) +
           ",\"dur\":" + fixed3((s.end - s.start) * 1e6) +
           ",\"args\":{\"span\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"id\":" + json_quote(s.id) + "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
