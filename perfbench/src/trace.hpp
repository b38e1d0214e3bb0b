// Spans recorded from outside the mapper: one around each call the
// benchmark makes into a module's public functions, plus grouping spans
// (pass, map, request) that give the calls their parent and id.
//
// The tracer is off unless the run was started with --trace 1; a Span
// constructed while it is off costs one branch.  Spans live in memory
// and are written once, at the end of the run, as Chrome trace-event
// JSON (the layout obs::ProfileData::chrome_trace_json emits).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

/// Seconds on the benchmark's one monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;    ///< "<module>.<call>" for a call, "bench.*" for groups
  std::string id;      ///< circuit / request id, inherited by children
  double start = 0.0;  ///< now_s()
  double end = 0.0;
  int parent = -1;     ///< index of the parent span, -1 for a root
  std::uint32_t tid = 0;
  bool call = false;   ///< wraps a call into the mapper (not a group)
};

class Tracer {
 public:
  static Tracer& get();

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Opens a span on the calling thread; returns its index (-1 when off).
  int open(const char* name, const std::string& id, bool call);
  void close(int index);
  /// Adds a finished span (for work that does not nest on one thread,
  /// such as a request in flight while others are sent); a no-op when
  /// the tracer is off.
  void record(const char* name, const std::string& id, double start,
              double end, int parent, bool call);

  /// Adds the profile's top-level phases as finished child spans of
  /// `parent` (a dag_map / cut_map call span) named "<prefix>/<phase>",
  /// placed from the call's start since the profile clock starts inside
  /// the call.
  void attach_profile(int parent, const dagmap::obs::ProfileData& profile,
                      const std::string& prefix);

  /// Share of [span.start, span.end] that call spans on any thread cover
  /// (outermost calls only, intervals merged).
  double coverage(int span) const;

  /// Self time per span name (duration minus the time its direct
  /// children on the same thread cover), summed over the subtree of
  /// `root` (all when -1); `calls_only` keeps call spans and the profile
  /// phases under them.
  std::map<std::string, double> self_times(int root, bool calls_only) const;
  /// Total time per span name over the subtree of `root`.
  std::map<std::string, double> totals(int root = -1) const;

  std::string chrome_trace_json() const;

 private:
  bool in_subtree(int span, int root) const;

  bool on_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::uint64_t, std::uint32_t> thread_ids_;
};

/// Parent for the first span a worker thread opens (its stack is empty):
/// lets a thread started inside a pass hang its spans under that pass.
void set_thread_parent(int parent);

/// RAII span.  `call` spans wrap one call into a mapper module; the
/// others group calls (a pass, one map, one request).
class Span {
 public:
  explicit Span(const char* name, const std::string& id = {},
                bool call = true)
      : index_(Tracer::get().on() ? Tracer::get().open(name, id, call) : -1) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early; index() stays valid for attach_profile.
  void end() {
    if (index_ >= 0 && !closed_) Tracer::get().close(index_);
    closed_ = true;
  }
  int index() const { return index_; }

 private:
  int index_;
  bool closed_ = false;
};

}  // namespace perfbench
