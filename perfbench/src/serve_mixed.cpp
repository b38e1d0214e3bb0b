// serve_mixed: run_serve driven closed-loop by one client that keeps
// three requests outstanding against three server workers; the client
// sends the next line only when a response line arrives.
//
// The 70 distinct requests are seven small circuits x two libraries
// (lib2 and the 44-3-like genlib, written into a fresh directory) x five
// kinds: structural, cuts, choices, verify, and structural with
// "profile" on.  Each is sent equally often, in a seeded order.  Every
// distinct request is mapped solo at set-up through the same
// per-request path serve uses; every response's
// structural_hash must equal its solo hash, and each distinct response's
// BLIF is parsed back and checked with check_equivalence after the
// stream, so every response is identical to a checked netlist.
#include <malloc.h>

#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <istream>
#include <mutex>
#include <numeric>
#include <ostream>
#include <streambuf>
#include <thread>

#include "gen/circuits.hpp"
#include "io/blif.hpp"
#include "io/genlib.hpp"
#include "layers.hpp"
#include "libcache/json.hpp"
#include "libcache/registry.hpp"
#include "libcache/serve.hpp"
#include "library/standard_libs.hpp"
#include "mapnet/write.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace dagmap;

namespace {

// Three workers and three requests outstanding leave one of the four
// CPUs the benchmark is sized for to the client and the system.
constexpr unsigned kWorkers = 3;       // ServeOptions::num_threads
constexpr std::size_t kOutstanding = 3;
/// Times each distinct request is sent in the timed block (one round),
/// so that the 70 x 15 = 1050 latencies put >= 10 beyond p99.
constexpr std::size_t kRoundCopies = 15;
/// The same for each session of a traced run (per-layer numbers only).
constexpr std::size_t kTraceRoundCopies = 7;
/// Checks per distinct response; verify_s takes each one's median.
constexpr int kVerifyRepeats = 30;
/// Check rounds run at once, each on a thread of its own.
constexpr int kVerifyThreads = 3;

// ---- in-process pipe between client and server -----------------------

/// One direction of the connection: bytes in, with blocking reads.
class Pipe {
 public:
  void write(const std::string& bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    data_ += bytes;
    cv_.notify_all();
  }
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_all();
  }
  /// Blocks until at least one byte is there or the pipe is closed
  /// (then returns 0).
  std::size_t read(char* buf, std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return head_ < data_.size() || closed_; });
    std::size_t k = std::min(n, data_.size() - head_);
    data_.copy(buf, k, head_);
    head_ += k;
    if (head_ == data_.size()) {
      data_.clear();
      head_ = 0;
    }
    return k;
  }
  std::size_t available() {
    std::lock_guard<std::mutex> lock(mutex_);
    return data_.size() - head_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::string data_;
  std::size_t head_ = 0;
  bool closed_ = false;
};

/// The server's input stream: in_avail() reports bytes already sent,
/// which is what run_serve's batching looks at.
class PipeReader : public std::streambuf {
 public:
  explicit PipeReader(Pipe& pipe) : pipe_(pipe) {}

 protected:
  int_type underflow() override {
    std::size_t n = pipe_.read(buf_, sizeof buf_);
    if (n == 0) return traits_type::eof();
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(*gptr());
  }
  std::streamsize showmanyc() override {
    return static_cast<std::streamsize>(pipe_.available());
  }

 private:
  Pipe& pipe_;
  char buf_[1 << 16];
};

/// The server's output stream: each complete line is handed to the
/// client with the time it was written.
class LineSink : public std::streambuf {
 public:
  /// Blocks for the next response line; false once the server is done.
  bool next(std::string& line, double& when) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !lines_.empty() || done_; });
    if (lines_.empty()) return false;
    line = std::move(lines_.front().first);
    when = lines_.front().second;
    lines_.pop_front();
    return true;
  }
  void finish() {
    std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
    cv_.notify_all();
  }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof()))
      put(traits_type::to_char_type(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c != '\n') {
      partial_ += c;
      return;
    }
    double when = now_s();
    std::lock_guard<std::mutex> lock(mutex_);
    lines_.emplace_back(std::move(partial_), when);
    partial_.clear();
    cv_.notify_all();
  }

  std::string partial_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::string, double>> lines_;
  bool done_ = false;
};

// ---- requests --------------------------------------------------------

enum class Kind { Structural, Cuts, Choices, Verify, Profile };
constexpr Kind kKinds[] = {Kind::Structural, Kind::Cuts, Kind::Choices,
                           Kind::Verify, Kind::Profile};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Structural: return "structural";
    case Kind::Cuts: return "cuts";
    case Kind::Choices: return "choices";
    case Kind::Verify: return "verify";
    case Kind::Profile: return "profile";
  }
  return "?";
}

struct Circuit {
  std::string name;
  std::string blif;
  Network network;  ///< parsed once, for checking responses
};

struct Library {
  std::string name;
  std::string path;
  std::shared_ptr<const CompiledLibrary> lib;
};

/// One distinct request and what its solo run produced.
struct Distinct {
  std::size_t circuit = 0, library = 0;
  Kind kind = Kind::Structural;
  std::string line;  ///< the JSON request, newline-terminated
  std::string id;    ///< "<circuit> <library> <kind>"
  std::uint64_t hash = 0;
  double delay = 0, area = 0, solo_ms = 0;
};

struct ServeSetup {
  std::string dir;
  std::vector<Library> libraries;
  std::vector<Circuit> circuits;
  std::vector<Distinct> requests;
  LayerTally tally;
};

std::string request_line(const Circuit& c, const Library& l, Kind kind) {
  std::string options;
  switch (kind) {
    case Kind::Structural: break;
    case Kind::Cuts: options = "\"backend\": \"cuts\""; break;
    case Kind::Choices: options = "\"choices\": true"; break;
    case Kind::Verify: options = "\"verify\": true"; break;
    case Kind::Profile: options = "\"profile\": true"; break;
  }
  return "{\"circuit\": " + libcache::json_quote(c.blif) +
         ", \"library\": " + libcache::json_quote(l.path) +
         ", \"options\": {" + options + "}}\n";
}

/// Maps one request alone, the way serve's worker does (one thread,
/// per-request NPN index for the cut backend), and records its hash.
void map_solo(ServeSetup& s, Distinct& d) {
  const Library& l = s.libraries[d.library];
  Span span("bench.solo", d.id, false);
  double t0 = now_s();
  Network circuit = parse_blif_traced(s.circuits[d.circuit].blif);
  bool choices = d.kind == Kind::Choices;
  Subject subject = decompose_traced(circuit, choices);
  s.tally.subject_nodes += static_cast<double>(subject.graph().num_internal());
  MapConfig config{kind_name(d.kind), d.kind == Kind::Cuts, choices};
  std::optional<NpnLibraryIndex> npn;
  if (config.cuts) {
    Span npn_span("libcache.npn_index_from_compiled");
    npn.emplace(npn_index_from_compiled(*l.lib));
  }
  MapResult r = map_traced(subject, config, *l.lib, 1, npn ? &*npn : nullptr);
  s.tally.add_map(r, config.cuts);
  if (d.kind == Kind::Verify) {
    VerifyResult v = verify_traced(circuit, r.netlist);
    if (!v.equivalent)
      throw std::runtime_error(d.id + ": solo map failed equivalence");
    s.tally.sim_work += v.work;
  }
  d.hash = hash_traced(r.netlist);
  s.tally.blif_bytes += static_cast<double>(write_traced(r.netlist).size() +
                                            s.circuits[d.circuit].blif.size());
  d.solo_ms = (now_s() - t0) * 1e3;
  d.delay = r.optimal_delay;
  d.area = r.netlist.total_area();
}

ServeSetup make_setup(const RunContext& ctx, int k) {
  ServeSetup s;
  s.dir = ctx.work_dir + "/setup-" + std::to_string(k);
  std::filesystem::create_directories(s.dir);
  {
    Span span("io.write_genlib");
    s.libraries.push_back({"lib2", s.dir + "/lib2.genlib", nullptr});
    std::ofstream(s.libraries.back().path) << lib2_genlib_text();
    s.libraries.push_back({"44-3", s.dir + "/44-3.genlib", nullptr});
    std::ofstream(s.libraries.back().path) << write_genlib(make_44_genlib(3));
  }
  // A cold registry: it compiles each library and saves its .dmlc
  // sidecar, which the server's own registry then loads.
  LibraryRegistry registry;
  for (Library& l : s.libraries) {
    Span span("libcache.registry_get", l.name);
    LibraryRegistry::Result r = registry.get(l.path, {});
    if (!r.ok()) throw std::runtime_error(l.name + ": " + r.error);
    l.lib = r.lib;
  }
  {
    Span span("gen.circuits");
    // The small suite without rand200: on 44-3 its requests cost about
    // as much as all the others together, and a run of >= 1000 requests
    // has to stay short.
    std::vector<BenchmarkCircuit> all = make_small_suite();
    std::erase_if(all, [](const BenchmarkCircuit& b) {
      return b.name == "rand200";
    });
    std::vector<BenchmarkCircuit> table3 = make_iscas85_like_suite();
    for (std::size_t i = 0; i < 2; ++i)  // c432, c499 (the smallest)
      all.push_back(std::move(table3[i]));
    for (BenchmarkCircuit& b : all) {
      std::string blif = write_blif(b.network);
      Network parsed = parse_blif(blif);
      s.circuits.push_back({b.name, std::move(blif), std::move(parsed)});
    }
  }
  for (std::size_t c = 0; c < s.circuits.size(); ++c)
    for (std::size_t l = 0; l < s.libraries.size(); ++l)
      for (Kind kind : kKinds) {
        Distinct d;
        d.circuit = c;
        d.library = l;
        d.kind = kind;
        d.line = request_line(s.circuits[c], s.libraries[l], kind);
        d.id = s.circuits[c].name + " " + s.libraries[l].name + " " +
               kind_name(kind);
        s.requests.push_back(std::move(d));
      }
  // Profiled requests map exactly like structural ones, which sit
  // Kind::Profile places earlier (kinds are laid out in enum order).
  for (std::size_t i = 0; i < s.requests.size(); ++i) {
    Distinct& d = s.requests[i];
    if (d.kind != Kind::Profile) {
      map_solo(s, d);
    } else {
      const Distinct& structural =
          s.requests[i - static_cast<std::size_t>(Kind::Profile)];
      d.hash = structural.hash;
      d.delay = structural.delay;
      d.area = structural.area;
      d.solo_ms = structural.solo_ms;
    }
  }
  return s;
}

/// The request stream: rounds of `copies` sweeps, each sweep sending
/// every distinct request once in a seeded order, so every seed sends the
/// same work and only its order differs.  Since each sweep holds every
/// request once, how often slow requests meet in one batch varies less
/// from seed to seed than in one shuffle of a whole round.  The equal mix
/// is no model of real traffic; profiled requests are one kind in five.
class Draw {
 public:
  Draw(const ServeSetup& s, std::size_t copies, std::uint64_t seed)
      : state_(seed), copies_(copies), sweep_(s.requests.size()) {
    std::iota(sweep_.begin(), sweep_.end(), std::size_t{0});
  }
  /// Requests in one round (the timed block).
  std::size_t round_size() const { return copies_ * sweep_.size(); }
  std::size_t next() {
    if (pos_ % sweep_.size() == 0) shuffle(sweep_, mix64(state_));
    return sweep_[pos_++ % sweep_.size()];
  }

 private:
  std::uint64_t state_;
  std::size_t copies_;
  std::vector<std::size_t> sweep_;
  std::size_t pos_ = 0;
};

/// One server session: warm-up (one request per library, untimed), then
/// the timed stream.
struct Session {
  double wall = 0;          ///< whole session, for the trace overhead
  double block_s = 0;       ///< first round of timed requests
  double stream_s = 0;      ///< all timed requests
  std::vector<double> latency_ms;
  ServeSummary summary;
  /// Check time of the distinct responses (verify_s).
  double verify_s = 0;
  int span = -1;
};

/// Parses each distinct response's BLIF back and checks it against the
/// request's circuit in kVerifyRepeats rounds over all responses (so one
/// response's checks are spread out in time); returns the sum over
/// responses of each one's median check time.  Each round runs on a
/// thread of its own, kVerifyThreads rounds at once, so one slow CPU or
/// heap layout does not hold every round of a run.
double verify_responses(const ServeSetup& s,
                        const std::map<std::size_t, std::string>& blifs,
                        int parent_span, LayerTally* tally, Outcome& out) {
  struct Parsed {
    const Distinct* request;
    MappedNetlist net;
  };
  std::vector<Parsed> parsed;
  for (const auto& [r, blif] : blifs) {
    const Distinct& d = s.requests[r];
    try {
      Span span("io.parse_mapped_blif", d.id);
      parsed.push_back(
          {&d, parse_mapped_blif(blif, s.libraries[d.library].lib->library)});
    } catch (const std::exception& e) {
      out.fail(d.id + ": response BLIF unreadable: " + e.what());
    }
  }
  // results[r][i]: round r's check of parsed[i].
  std::vector<std::vector<VerifyResult>> results(
      kVerifyRepeats, std::vector<VerifyResult>(parsed.size()));
  auto round = [&](int r) {
    set_thread_parent(parent_span);
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      const Parsed& p = parsed[i];
      Span span("bench.verify", p.request->id, false);
      try {
        results[r][i] =
            verify_traced(s.circuits[p.request->circuit].network, p.net);
      } catch (const std::exception&) {
        results[r][i] = {};  // not equivalent
      }
    }
  };
  for (int r = 0; r < kVerifyRepeats; r += kVerifyThreads) {
    std::vector<std::thread> threads;
    for (int t = r; t < std::min(r + kVerifyThreads, kVerifyRepeats); ++t)
      threads.emplace_back(round, t);
    for (std::thread& t : threads) t.join();
  }
  double total = 0;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    std::vector<double> seconds;
    bool equivalent = true;
    for (const std::vector<VerifyResult>& round_results : results) {
      const VerifyResult& check = round_results[i];
      seconds.push_back(check.seconds);
      equivalent = equivalent && check.equivalent;
      if (tally) tally->sim_work += check.work;
    }
    total += median(seconds);
    if (!equivalent)
      out.fail(parsed[i].request->id + ": response failed equivalence");
  }
  return total;
}

Session run_session(const ServeSetup& s, Draw& draw, double seconds,
                    LayerTally* tally, Outcome& out) {
  const std::size_t block = draw.round_size();
  Session session;
  Span session_span("bench.session", {}, false);
  session.span = session_span.index();
  double session_start = now_s();

  Pipe requests;
  PipeReader reader(requests);
  LineSink sink;
  std::istream in(&reader);
  std::ostream os(&sink);
  ServeOptions sopt;
  sopt.num_threads = kWorkers;
  sopt.default_library = s.libraries.front().path;
  std::string server_error;
  std::thread server([&] {
    set_thread_parent(session.span);
    try {
      Span span("libcache.run_serve");
      session.summary = run_serve(in, os, sopt);
    } catch (const std::exception& e) {
      server_error = e.what();
    }
    sink.finish();
  });
  // Joins the server on every way out of this function.
  struct Joiner {
    Pipe& requests;
    std::thread& server;
    ~Joiner() {
      requests.close();
      if (server.joinable()) server.join();
    }
  } joiner{requests, server};

  std::uint64_t next_id = 0;
  struct InFlight {
    std::size_t request;
    std::uint64_t id;
    double sent;
    bool timed;
  };
  std::deque<InFlight> flight;
  std::map<std::size_t, std::string> first_blif;  // per distinct request
  auto send = [&](std::size_t r, bool timed) {
    flight.push_back({r, next_id++, now_s(), timed});
    requests.write(s.requests[r].line);
  };
  auto receive = [&]() -> bool {
    std::string line;
    double when = 0;
    if (!sink.next(line, when)) return false;
    InFlight f = flight.front();
    flight.pop_front();
    const Distinct& d = s.requests[f.request];
    ++out.attempted;
    libcache::JsonValue r;
    try {
      r = libcache::parse_json(line);
    } catch (const std::exception&) {
      r = {};  // fails the "ok" check
    }
    if (!r.get_bool("ok")) {
      out.fail(d.id + ": " + r.get_string("error", "malformed response"));
    } else if (r.get_number("id", -1) != static_cast<double>(f.id)) {
      out.fail(d.id + ": response out of order");
    } else if (r.get_string("structural_hash") != hex64(d.hash)) {
      out.fail(d.id + ": structural_hash differs from the solo map");
    } else if (d.kind == Kind::Verify && !r.get_bool("verified")) {
      out.fail(d.id + ": verify request not verified");
    } else if (d.kind == Kind::Profile && !r.find("profile")) {
      out.fail(d.id + ": profile request without a profile");
    } else if (!first_blif.count(f.request)) {
      first_blif.emplace(f.request, r.get_string("blif"));
    }
    if (f.timed) {
      session.latency_ms.push_back((when - f.sent) * 1e3);
      Tracer::get().record("bench.request", d.id, f.sent, when, session.span,
                           false);
    }
    return true;
  };

  // Warm-up: the server's registry loads each library's sidecar here.
  for (std::size_t l = 0; l < s.libraries.size(); ++l)
    send(l * std::size(kKinds), false);
  while (!flight.empty() && receive()) {}

  double start = now_s();
  std::size_t sent = 0, received = 0;
  // Whole rounds: the first, then another only while it would still end
  // within `seconds` at the pace so far.
  auto more = [&] {
    if (sent < block || sent % block != 0) return true;
    const double rounds = static_cast<double>(sent / block);
    return (now_s() - start) * (rounds + 1) / rounds <= seconds;
  };
  for (;;) {
    while (flight.size() < kOutstanding && more()) {
      send(draw.next(), true);
      ++sent;
    }
    if (flight.empty() || !receive()) break;
    if (++received == block) session.block_s = now_s() - start;
  }
  session.stream_s = now_s() - start;
  requests.close();
  server.join();
  if (!server_error.empty()) out.fail("run_serve threw: " + server_error);
  while (!flight.empty()) {  // the server stopped early
    out.fail(s.requests[flight.front().request].id + ": no response");
    flight.pop_front();
  }
  session.verify_s =
      verify_responses(s, first_blif, session.span, tally, out);
  session_span.end();
  session.wall = now_s() - session_start;
  return session;
}

}  // namespace

Outcome run_serve_mixed(const RunContext& ctx) {
  // glibc raises its mmap threshold to the size of each large block freed
  // (up to 32 MiB), after which such blocks come from the arena of
  // whichever server worker asks.  When that happens depends on which
  // requests met on which thread, and peak RSS moved with it (24-30 MiB
  // from run to run).  Fixing the threshold at 32 MiB from the start puts
  // the process in the state a long-running server reaches: every worker
  // keeps the heap of its largest request, and the peak is steady.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  Outcome out;
  Tracer& tracer = Tracer::get();
  tracer.set_on(ctx.trace);

  std::vector<double> setup_times;
  ServeSetup setup;
  int setup_span = -1;
  // setup_s is reported by untraced runs only; a traced run sets up once.
  const int setups = ctx.trace ? 1 : 3;
  for (int k = 0; k < setups; ++k) {
    setup = {};  // so two set-ups never share the peak
    Span span("bench.setup", "setup " + std::to_string(k), false);
    double t0 = now_s();
    setup = make_setup(ctx, k);
    setup_times.push_back(now_s() - t0);
    setup_span = span.index();
  }

  out.meta["setup_peak_rss_mb"] = std::to_string(peak_rss_mb());
  Draw draw(setup, ctx.trace ? kTraceRoundCopies : kRoundCopies, ctx.seed);
  std::vector<Session> sessions;
  if (!ctx.trace) {
    sessions.push_back(run_session(setup, draw, ctx.seconds, nullptr, out));
  } else {
    tracer.set_on(false);
    sessions.push_back(run_session(setup, draw, 0, nullptr, out));
    tracer.set_on(true);
    sessions.push_back(run_session(setup, draw, 0, &setup.tally, out));
  }

  const Session& timed = sessions.front();
  std::vector<double> delays, areas, solo_ms;
  for (const Distinct& d : setup.requests) {
    solo_ms.push_back(d.solo_ms);
    if (d.kind == Kind::Structural || d.kind == Kind::Cuts ||
        d.kind == Kind::Choices) {
      delays.push_back(d.delay);
      areas.push_back(d.area);
    }
  }
  std::map<std::string, double>& m = out.end_to_end;
  m["setup_s"] = median(setup_times);
  m["compile_s"] = timed.block_s;
  m["verify_s"] = timed.verify_s;
  m["throughput_rps"] =
      static_cast<double>(timed.latency_ms.size()) / timed.stream_s;
  m["latency_p50_ms"] = percentile(timed.latency_ms, 0.5);
  m["latency_p99_ms"] = percentile(timed.latency_ms, 0.99);
  m["delay_gm"] = geomean(delays);
  m["area_gm"] = geomean(areas);

  if (ctx.trace) {
    const Session& traced = sessions.back();
    LayerTally& tally = setup.tally;
    tally.registry_hits = static_cast<double>(traced.summary.registry.hits);
    tally.registry_misses = static_cast<double>(traced.summary.registry.misses);
    tally.batches = static_cast<double>(traced.summary.batches);
    tally.requests = static_cast<double>(traced.summary.requests);
    tally.solo_p50_ms = median(solo_ms);
    fill_per_layer(out, tally, {traced.span, setup_span}, traced.span,
                   traced.wall / timed.wall - 1.0);
    out.layer_table = layer_table(traced.span, traced.wall);
  }
  out.meta["setups"] = std::to_string(setups);
  out.meta["sessions"] = std::to_string(sessions.size());
  out.meta["timed_requests"] = std::to_string(timed.latency_ms.size());
  out.meta["distinct_requests"] = std::to_string(setup.requests.size());
  out.meta["block_requests"] = std::to_string(draw.round_size());
  out.meta["server_workers"] = std::to_string(kWorkers);
  out.meta["outstanding"] = std::to_string(kOutstanding);
  out.meta["map_threads"] = "1";
  return out;
}

}  // namespace perfbench
