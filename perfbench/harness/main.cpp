// perfbench_harness: the repository benchmark (see BENCHMARK.json).
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --pncd PATH [--commit SHA] [--source-digest HEX]
//
// Run from the repository root: scratch trees and daemons live under
// .bench_run/ (removed on exit), trace files go to .bench_out/.
//
// Workloads (why each exists is recorded in BENCHMARK.json and
// perfbench/predictions.json):
//   cold_scan       in process, caches off: a fresh BatchDriver runs
//                   run_directory + to_json per op over ~2000 small
//                   corpus-derived files and three >= 1 MiB units.
//   warm_serve      the pncd binary as a child, two connections in a
//                   closed loop of warm ANALYZE_DIR over a 104-file tree.
//   edit_reanalyze  pncd with one connection: TREE_OPEN a 2000-file tree
//                   in set-up, then each op rewrites k files (seeded) and
//                   sends TREE_REANALYZE.
//
// Every op's output is checked against an in-process golden.  The last
// stdout line is the result object; the line before it is a record with
// the run's metadata stamp (commit, nproc, dispatched ISA, calibration
// numbers) and the non-gated figures (error_pct, tail percentile and
// sample count, whole-loop percentiles and rate).  Latency and rate
// metrics come from the quietest of a few equal time windows of the
// loop (see Windows).  --trace 1 runs the same loop untraced and traced,
// then calls each layer's public functions under spans and reports the
// per-layer metrics, the tracing overhead and the unexplained
// remainder; the spans go to a Chrome trace-event file in .bench_out/.
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/driver.h"
#include "analysis/mapped_buffer.h"
#include "analysis/simd_dispatch.h"
#include "analysis/tree_manifest.h"
#include "service/client.h"
#include "service/disk_cache.h"
#include "service/manifest_codec.h"
#include "service/protocol.h"
#include "service/server.h"
#include "trace.h"
#include "treegen.h"

namespace fs = std::filesystem;
namespace an = pnlab::analysis;
namespace sv = pnlab::service;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Small helpers

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of @p v (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// VmHWM (peak resident set) of @p pid ("self" for this process), MiB.
double peak_rss_mib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM for pid " + pid);
}

/// (steal, total) jiffies across all CPUs from /proc/stat: the share
/// of time the hypervisor ran someone else, stamped on every record.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0, total = 0;
  for (int i = 0; i < 8 && in; ++i) {
    double v = 0;
    in >> v;
    total += v;
    if (i == 7) steal = v;  // user nice system idle iowait irq softirq steal
  }
  return {steal, total};
}

// ---------------------------------------------------------------------------
// The pncd child process

class Daemon {
 public:
  /// Starts `pncd --socket=<dir>/pncd.sock --cache-dir=<dir>/cache` —
  /// default flags otherwise — and waits until it answers a PING.
  Daemon(const std::string& pncd, const std::string& dir)
      : socket_(dir + "/pncd.sock") {
    fs::create_directories(dir);
    const std::string log = dir + "/pncd.log";
    const std::string socket_flag = "--socket=" + socket_;
    const std::string cache_flag = "--cache-dir=" + dir + "/cache";
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Never outlive the benchmark, whatever way it exits.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execl(pncd.c_str(), pncd.c_str(), socket_flag.c_str(),
              cache_flag.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    const auto start = Clock::now();
    for (;;) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("pncd exited during start-up; see " + log);
      }
      auto client = sv::Client::connect(socket_, nullptr, 200);
      sv::Request ping;
      sv::Response pong;
      if (client && client->call(ping, &pong) && pong.ok) break;
      if (seconds_since(start) > 30) {
        stop();
        throw std::runtime_error("pncd did not answer within 30 s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  double peak_rss_mib() const { return ::peak_rss_mib(std::to_string(pid_)); }

  /// SHUTDOWN request, then reap; SIGKILL if it does not exit in 10 s.
  void stop() {
    if (pid_ <= 0) return;
    if (auto client = sv::Client::connect(socket_, nullptr, 500)) {
      sv::Request bye;
      bye.kind = sv::RequestKind::kShutdown;
      sv::Response ack;
      client->call(bye, &ack);
    }
    const auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (seconds_since(start) > 10) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// ---------------------------------------------------------------------------
// Arguments and workloads

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string pncd;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

constexpr const char* kWorkDir = ".bench_run";
constexpr const char* kOutDir = ".bench_out";

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("bad arg " + key);
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) throw std::runtime_error("arguments come in pairs");
  for (const auto& [k, v] : kv) {
    if (k == "workload") a.workload = v;
    else if (k == "seed") a.seed = std::stoull(v);
    else if (k == "seconds") a.seconds = std::stod(v);
    else if (k == "trace") a.trace = v == "1";
    else if (k == "pncd") a.pncd = v;
    else if (k == "commit") a.commit = v;
    else if (k == "source-digest") a.source_digest = v;
    else throw std::runtime_error("unknown option --" + k);
  }
  if (a.pncd.empty()) throw std::runtime_error("--pncd is required");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

struct Workload {
  std::string name;
  perfbench::TreeShape shape;
  double tail_pct;  ///< fixed so that >= 10 samples lie beyond it
  int windows;      ///< time windows the loop is cut into (see Windows)
  int setups;       ///< set-up repeats per run; setup_s is their median
  /// Completed ops after which peak_rss_mib is read: a fixed count, so
  /// the figure does not grow with throughput (pncd keeps per-run state).
  std::uint64_t rss_ops;
};

const Workload& workload(const std::string& name) {
  static const std::vector<Workload> all = {
      {"cold_scan", {2000, 20, 3, std::size_t{1} << 20}, 90, 1, 7, 60},
      // The serving tails are p90 of >= 1000 (warm_serve) or >= 120
      // (edit_reanalyze, where p90 falls among the one-file edits) ops
      // per window: a p99 of a few-ms op moves with the host's CPU steal.
      {"warm_serve", {104, 4, 0, 0}, 90, 10, 9, 3000},
      // Each set-up pays ~2000 fsync'd disk-cache stores: five, not seven.
      {"edit_reanalyze", {2000, 20, 0, 0}, 90, 8, 5, 300},
  };
  for (const Workload& w : all) {
    if (w.name == name) return w;
  }
  throw std::runtime_error("unknown workload " + name);
}

constexpr int kConnections = 2;    // warm_serve closed-loop clients
constexpr int kGoldenEvery = 25;   // edit_reanalyze golden-diff sampling

// ---------------------------------------------------------------------------
// One run's state

struct Samples {
  std::vector<double> lat_ms;
  std::vector<double> at_s;  ///< each lat_ms sample's completion, loop seconds
  double wall_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t client_failed = 0;  ///< connect or round trip failed
  std::uint64_t server_failed = 0;  ///< non-OK status
  std::uint64_t wrong = 0;          ///< OK status but wrong body/counters
  std::uint64_t mem_hits = 0;     ///< memory-cache hits during the loop
  std::uint64_t mem_lookups = 0;  ///< memory-cache lookups during the loop
  std::uint64_t edit_ops = 0;      ///< edit_reanalyze ops that edited a file
  std::uint64_t edited_files = 0;  ///< files those ops edited, summed

  void merge(const Samples& o) {
    lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    for (double t : o.at_s) at_s.push_back(wall_s + t);  // blocks in sequence
    attempted += o.attempted;
    wrong += o.wrong;
    client_failed += o.client_failed;
    server_failed += o.server_failed;
    mem_hits += o.mem_hits;
    mem_lookups += o.mem_lookups;
    edit_ops += o.edit_ops;
    edited_files += o.edited_files;
    wall_s += o.wall_s;
  }
};

/// A loop's samples cut into equal time windows by completion time.
/// The latency and rate metrics come from the quietest window, so a
/// burst of load from outside the benchmark (CPU steal on a shared
/// host) lands in the others.  One window is the whole loop.
class Windows {
 public:
  Windows(const Samples& s, int n)
      : lat_ms_(static_cast<std::size_t>(n)), width_s_(s.wall_s / n) {
    for (std::size_t i = 0; i < s.lat_ms.size(); ++i) {
      const double at = s.wall_s > 0 ? s.at_s[i] / s.wall_s : 0;
      const auto w = static_cast<std::size_t>(std::clamp(at, 0.0, 1.0) * n);
      lat_ms_[std::min(w, lat_ms_.size() - 1)].push_back(s.lat_ms[i]);
    }
  }

  /// The lowest window's nearest-rank percentile @p p; @p fewest_beyond
  /// gets the fewest samples above the percentile in any window.
  double lowest_percentile(double p, std::size_t* fewest_beyond) const {
    double lowest = 0;
    *fewest_beyond = 0;
    bool first = true;
    for (const std::vector<double>& w : lat_ms_) {
      if (w.empty()) continue;
      const double v = percentile(w, p);
      const auto beyond = static_cast<std::size_t>(
          std::count_if(w.begin(), w.end(), [&](double x) { return x > v; }));
      lowest = first ? v : std::min(lowest, v);
      *fewest_beyond = first ? beyond : std::min(*fewest_beyond, beyond);
      first = false;
    }
    return lowest;
  }

  /// The highest window's completed ops per second.
  double highest_rate() const {
    std::size_t most = 0;
    for (const std::vector<double>& w : lat_ms_) most = std::max(most, w.size());
    return width_s_ > 0 ? static_cast<double>(most) / width_s_ : 0;
  }

 private:
  std::vector<std::vector<double>> lat_ms_;
  double width_s_;
};

struct Run {
  Args args;
  const Workload* w = nullptr;
  std::string dir;  ///< this run's scratch directory
  Tracer tracer;
  perfbench::Tree tree;
  std::unique_ptr<Daemon> daemon;
  std::string golden;  ///< expected body (cold_scan, warm_serve)
  /// edit_reanalyze: schedule, revision counter, golden driver.
  std::unique_ptr<perfbench::EditSchedule> edits;
  std::uint64_t revision = 0;
  std::unique_ptr<an::BatchDriver> golden_driver;
  std::uint64_t op_id = 0;
  std::atomic<std::uint64_t> ops_done{0};
  double rss_mib = -1;  ///< peak_rss_mib once rss_ops ops completed
};

/// VmHWM of pncd, or of the benchmark process for cold_scan.
double current_rss_mib(const Run& r) {
  return r.daemon ? r.daemon->peak_rss_mib() : peak_rss_mib("self");
}

/// Counts one completed op; the rss_ops-th reads peak_rss_mib.
void count_op(Run& r) {
  if (r.ops_done.fetch_add(1) + 1 == r.w->rss_ops) r.rss_mib = current_rss_mib(r);
}

sv::Request dir_request(const Run& r, sv::RequestKind kind) {
  sv::Request req;
  req.kind = kind;
  req.format = sv::OutputFormat::kJson;
  req.paths = {r.tree.root};
  return req;
}

std::string in_process_json(const std::string& root, std::size_t threads) {
  an::DriverOptions o;
  o.threads = threads;
  o.use_cache = false;
  an::BatchDriver driver(o);
  return an::to_json(driver.run_directory(root));
}

/// One set-up: tree generation, daemon start, warm-up / TREE_OPEN.
/// Leaves the run ready to measure; returns its wall seconds.
double setup_once(Run& r, int attempt) {
  // Tear-down of the previous attempt is not set-up, nor is the
  // writeback of what it (or earlier work) left dirty.
  r.daemon.reset();
  fs::remove_all(r.dir + "/tree");
  if (attempt > 0) fs::remove_all(r.dir + "/pncd" + std::to_string(attempt - 1));
  const int dirfd = ::open(r.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    ::syncfs(dirfd);
    ::close(dirfd);
  }
  const auto start = Clock::now();
  r.tree = perfbench::make_tree(r.dir + "/tree", r.w->shape, r.args.seed);
  perfbench::write_tree(r.tree);
  if (r.w->name == "cold_scan") {
    in_process_json(r.tree.root, 0);  // warm-up: page cache, allocator
  } else {
    const std::string ddir = r.dir + "/pncd" + std::to_string(attempt);
    fs::remove_all(ddir);
    r.daemon = std::make_unique<Daemon>(r.args.pncd, ddir);
    auto client = sv::Client::connect(r.daemon->socket());
    if (!client) throw std::runtime_error("cannot connect to pncd");
    sv::Response resp;
    if (r.w->name == "warm_serve") {
      const sv::Request req = dir_request(r, sv::RequestKind::kAnalyzeDir);
      for (int i = 0; i < 20; ++i) {
        if (!client->call(req, &resp) || !resp.ok) {
          throw std::runtime_error("warm-up ANALYZE_DIR failed: " + resp.error);
        }
      }
    } else {
      if (!client->call(dir_request(r, sv::RequestKind::kTreeOpen), &resp) ||
          !resp.ok) {
        throw std::runtime_error("TREE_OPEN failed: " + resp.error);
      }
      if (!client->call(dir_request(r, sv::RequestKind::kTreeReanalyze),
                        &resp) ||
          !resp.ok) {
        throw std::runtime_error("TREE_REANALYZE failed: " + resp.error);
      }
    }
  }
  return seconds_since(start);
}

/// Golden outputs, computed in process after set-up (not timed).
void prepare_goldens(Run& r) {
  if (r.w->name == "edit_reanalyze") {
    r.edits = std::make_unique<perfbench::EditSchedule>(r.args.seed,
                                                        r.tree.files.size());
    r.golden_driver = std::make_unique<an::BatchDriver>();
  } else {
    // One thread: the golden cannot share a schedule with the ops.
    r.golden = in_process_json(r.tree.root, 1);
  }
}

// ---------------------------------------------------------------------------
// Measurement loops.  Latency covers the request (or the in-process
// run_directory + to_json); golden checks of edit_reanalyze are paused
// out of the wall clock.

Samples measure_cold(Run& r, double seconds) {
  Samples s;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    Tracer::Scope op = r.tracer.span("op", ++r.op_id);
    const auto t0 = Clock::now();
    an::DriverOptions o;
    o.use_cache = false;
    an::BatchDriver driver(o);
    an::BatchResult batch;
    {
      Tracer::Scope sp = r.tracer.span("driver.run_directory", r.op_id);
      batch = driver.run_directory(r.tree.root);
    }
    std::string json;
    {
      Tracer::Scope sp = r.tracer.span("driver.to_json", r.op_id);
      json = an::to_json(batch);
    }
    s.lat_ms.push_back(seconds_since(t0) * 1000);
    s.at_s.push_back(seconds_since(start));
    count_op(r);
    ++s.attempted;
    s.mem_hits += batch.stats.cache.hits;
    s.mem_lookups += batch.stats.cache.lookups();
    if (json != r.golden) ++s.wrong;
  }
  s.wall_s = seconds_since(start);
  return s;
}

/// Daemon-wide memory-cache (hits, lookups) from a STATS request.  The
/// per-response mem_cache_hits is a delta of the shared cache's global
/// counters, so concurrent requests would count each other's hits.
std::pair<std::uint64_t, std::uint64_t> memory_cache_counters(const Run& r) {
  auto client = sv::Client::connect(r.daemon->socket());
  sv::Request req;
  req.kind = sv::RequestKind::kStats;
  sv::Response resp;
  if (!client || !client->call(req, &resp) || !resp.ok) {
    throw std::runtime_error("STATS request failed");
  }
  const std::size_t at = resp.body.find("\"memory_cache\"");
  auto field = [&](const char* key) -> std::uint64_t {
    const std::size_t k = resp.body.find(key, at);
    if (at == std::string::npos || k == std::string::npos) {
      throw std::runtime_error("STATS body lacks memory_cache counters");
    }
    return std::strtoull(resp.body.c_str() + k + std::strlen(key), nullptr, 10);
  };
  const std::uint64_t hits = field("\"hits\": ");
  return {hits, hits + field("\"misses\": ")};
}

/// Runs @p loop and adds the daemon's memory-cache traffic to its result.
template <typename Loop>
Samples with_cache_counters(const Run& r, Loop loop) {
  const auto before = memory_cache_counters(r);
  Samples s = loop();
  const auto after = memory_cache_counters(r);
  s.mem_hits = after.first - before.first;
  s.mem_lookups = after.second - before.second;
  return s;
}

Samples measure_warm(Run& r, double seconds) {
  const sv::Request req = dir_request(r, sv::RequestKind::kAnalyzeDir);
  std::vector<Samples> per(kConnections);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Samples& s = per[c];
      auto client = sv::Client::connect(r.daemon->socket());
      if (!client) {
        ++s.attempted;
        ++s.client_failed;
        return;
      }
      for (std::uint64_t n = 1; seconds_since(start) < seconds; ++n) {
        const std::uint64_t id = (static_cast<std::uint64_t>(c) << 32) | n;
        sv::Response resp;
        Tracer::Scope op = r.tracer.span("op", id);
        const auto t0 = Clock::now();
        bool sent;
        {
          Tracer::Scope sp = r.tracer.span("client.call", id);
          sent = client->call(req, &resp);
        }
        const double ms = seconds_since(t0) * 1000;
        ++s.attempted;
        if (!sent) {
          ++s.client_failed;
          break;  // the connection is gone
        }
        if (!resp.ok || resp.status != sv::StatusCode::kOk) {
          ++s.server_failed;
          continue;
        }
        s.lat_ms.push_back(ms);
        s.at_s.push_back(seconds_since(start));
        count_op(r);
        if (resp.body != r.golden) ++s.wrong;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Samples all;
  for (const Samples& s : per) all.merge(s);
  all.wall_s = seconds_since(start);
  return all;
}

Samples measure_edit(Run& r, double seconds) {
  Samples s;
  auto client = sv::Client::connect(r.daemon->socket());
  if (!client) {
    s.attempted = s.client_failed = 1;
    return s;
  }
  const sv::Request req = dir_request(r, sv::RequestKind::kTreeReanalyze);
  double paused_s = 0;
  std::string last_body;
  const auto start = Clock::now();
  while (seconds_since(start) - paused_s < seconds) {
    Tracer::Scope op = r.tracer.span("op", ++r.op_id);
    const std::vector<std::size_t> picked = r.edits->next();
    s.edit_ops += !picked.empty();
    s.edited_files += picked.size();
    {
      Tracer::Scope sp = r.tracer.span("edit.write", r.op_id);
      for (std::size_t f : picked) {
        perfbench::write_file(r.tree.files[f],
                              perfbench::edited_source(r.tree, f, ++r.revision));
      }
    }
    sv::Response resp;
    const auto t0 = Clock::now();
    bool sent;
    {
      Tracer::Scope sp = r.tracer.span("client.call", r.op_id);
      sent = client->call(req, &resp);
    }
    const double ms = seconds_since(t0) * 1000;
    ++s.attempted;
    if (!sent) {
      ++s.client_failed;
      break;
    }
    if (!resp.ok || resp.status != sv::StatusCode::kOk) {
      ++s.server_failed;
      continue;
    }
    s.lat_ms.push_back(ms);
    s.at_s.push_back(seconds_since(start) - paused_s);
    count_op(r);
    if (resp.stats.tree_dirty != picked.size()) {
      std::cerr << "edit_reanalyze: op " << r.op_id << " edited "
                << picked.size() << " file(s), server saw "
                << resp.stats.tree_dirty << " dirty\n";
      ++s.wrong;
    }
    if (r.op_id % kGoldenEvery == 0) {
      const auto p0 = Clock::now();
      if (resp.body != an::to_json(r.golden_driver->run_directory(r.tree.root))) {
        ++s.wrong;
      }
      paused_s += seconds_since(p0);
    }
    last_body = std::move(resp.body);
  }
  s.wall_s = seconds_since(start) - paused_s;
  // The last op's body is always golden-diffed (the tree is unchanged
  // since it was served).
  if (!last_body.empty() &&
      last_body != an::to_json(r.golden_driver->run_directory(r.tree.root))) {
    ++s.wrong;
  }
  return s;
}

Samples measure(Run& r, double seconds) {
  if (r.w->name == "cold_scan") return measure_cold(r, seconds);
  if (r.w->name == "warm_serve") {
    return with_cache_counters(r, [&] { return measure_warm(r, seconds); });
  }
  return with_cache_counters(r, [&] { return measure_edit(r, seconds); });
}

// ---------------------------------------------------------------------------
// Calibration stamp: PING round trip and the scalar lexer's MiB/s.

struct Calibration {
  double ping_rtt_us = 0;
  double scalar_mib_per_s = 0;
};

double ping_rtt_us(const std::string& socket, int pings) {
  auto client = sv::Client::connect(socket);
  if (!client) throw std::runtime_error("calibration: cannot connect");
  sv::Request ping;
  std::vector<double> us;
  for (int i = 0; i < pings; ++i) {
    sv::Response pong;
    const auto t0 = Clock::now();
    if (!client->call(ping, &pong) || !pong.ok) {
      throw std::runtime_error("calibration: PING failed");
    }
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

/// Median single-thread MiB/s of analyze() over a >= 1 MiB unit.
double analyzer_mib_per_s(const std::string& unit, int reps) {
  std::vector<double> rates;
  an::analyze(unit);  // warm-up
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    an::analyze(unit);
    rates.push_back(static_cast<double>(unit.size()) / (1024.0 * 1024.0) /
                    seconds_since(t0));
  }
  return median(rates);
}

Calibration calibrate(Run& r) {
  Calibration c;
  std::unique_ptr<Daemon> own;
  const Daemon* d = r.daemon.get();
  if (!d) {
    own = std::make_unique<Daemon>(r.args.pncd, r.dir + "/pncd-calibration");
    d = own.get();
  }
  c.ping_rtt_us = ping_rtt_us(d->socket(), 200);
  // In-process equivalent of PNC_FORCE_ISA=scalar.
  const an::simd::Isa dispatched = an::simd::active_isa();
  an::simd::set_active_isa(an::simd::Isa::kScalar);
  c.scalar_mib_per_s =
      analyzer_mib_per_s(perfbench::large_unit(r.args.seed, 1u << 20), 5);
  an::simd::set_active_isa(dispatched);
  return c;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer probes.  Each layer call is wrapped in a span;
// the metric is the median self time (per file where stated).

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double span_median(const Tracer& t, const char* name, double divide = 1) {
  return median(t.self_us(name)) / divide;
}

std::vector<Metric> probe_layers(Run& r, const Samples& traffic,
                                 double untraced_p50, double untraced_mean,
                                 double traced_p50) {
  Tracer& t = r.tracer;
  std::vector<Metric> m;
  const std::string& root = r.tree.root;
  std::uint64_t client_failed = traffic.client_failed;
  std::uint64_t server_failed = traffic.server_failed;

  // driver: the directory walk.
  std::vector<std::string> paths;
  for (int i = 0; i < 20; ++i) {
    paths.clear();
    std::vector<an::FileReport> unreadable;
    Tracer::Scope sp = t.span("driver.walk");
    an::collect_pnc_tree(root, &paths, &unreadable);
  }
  std::sort(paths.begin(), paths.end());
  const double files = static_cast<double>(std::max<std::size_t>(1, paths.size()));
  m.push_back({"driver.walk_us", "us", span_median(t, "driver.walk")});
  m.push_back({"driver.walk_files", "count", static_cast<double>(paths.size())});

  // mapped_buffer: open each file; then the ingest hash.
  std::vector<an::SourceFile> ingested;
  std::uint64_t open_failed = 0;
  std::size_t mapped = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<std::shared_ptr<const an::MappedBuffer>> bufs;
    {
      Tracer::Scope sp = t.span("mapped_buffer.open");
      for (const std::string& p : paths) {
        bufs.push_back(an::MappedBuffer::open(
            p, an::MappedBuffer::Ingestion::kAuto, nullptr));
      }
    }
    {
      Tracer::Scope sp = t.span("driver.fnv1a");
      for (const auto& b : bufs) {
        if (b) an::fnv1a(b->view());
      }
    }
    if (rep == 0) {
      for (std::size_t i = 0; i < bufs.size(); ++i) {
        if (!bufs[i]) {
          ++open_failed;
          continue;
        }
        mapped += bufs[i]->is_mapped();
        ingested.push_back(an::SourceFile::mapped(paths[i], bufs[i]));
      }
    }
  }
  m.push_back({"mapped_buffer.open_us", "us",
               span_median(t, "mapped_buffer.open", files)});
  m.push_back({"mapped_buffer.mapped_ratio", "ratio",
               static_cast<double>(mapped) / files});
  m.push_back({"mapped_buffer.failed", "count", static_cast<double>(open_failed)});
  m.push_back({"driver.fnv1a_us", "us", span_median(t, "driver.fnv1a", files)});

  // analyzer: one single-thread pass over the tree (PhaseTimings), which
  // also fills the result cache the warm probes use.
  auto cache = std::make_shared<an::ResultCache>();
  cache->set_max_entries(0);
  an::PhaseTimings phases;
  std::size_t ast_nodes = 0;
  {
    Tracer::Scope sp = t.span("analyzer.analyze_tree");
    for (const an::SourceFile& f : ingested) {
      an::PhaseTimings pt;
      try {
        const an::AnalysisResult res = an::analyze(f.source, {}, &pt);
        ast_nodes += res.ast_nodes;
        cache->insert(f.content_hash, f.source.size(), res);
      } catch (const std::exception&) {
        // A parse error is a per-file record, not a probe failure.
      }
      phases += pt;
    }
  }
  m.push_back({"analyzer.parse_s", "s", phases.parse_s});
  m.push_back({"analyzer.sema_s", "s", phases.sema_s});
  m.push_back({"analyzer.check_s", "s", phases.check_s});
  {
    const std::string unit = perfbench::large_unit(r.args.seed, 1u << 20);
    Tracer::Scope sp = t.span("analyzer.large_unit");
    m.push_back({"analyzer.mib_per_s", "MiB/s", analyzer_mib_per_s(unit, 3)});
  }
  m.push_back({"analyzer.ast_nodes", "count", static_cast<double>(ast_nodes)});

  // driver: memory-cache probes, then a warm run on pre-ingested files.
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Scope sp = t.span("driver.cache_probe");
    for (const an::SourceFile& f : ingested) {
      cache->find(f.content_hash, f.source.size());
    }
  }
  m.push_back({"driver.cache_probe_us", "us",
               span_median(t, "driver.cache_probe",
                           static_cast<double>(std::max<std::size_t>(1, ingested.size())))});
  m.push_back({"driver.mem_hit_ratio", "ratio",
               traffic.mem_lookups ? static_cast<double>(traffic.mem_hits) /
                                         static_cast<double>(traffic.mem_lookups)
                                   : 0});
  double steals = 0;
  an::BatchResult warm_batch;
  for (int rep = 0; rep < 20; ++rep) {
    an::DriverOptions o;
    o.shared_cache = cache;
    an::BatchDriver driver(o);
    Tracer::Scope sp = t.span("driver.run_warm");
    warm_batch = driver.run(ingested);
    steals += static_cast<double>(warm_batch.stats.steals);
  }
  m.push_back({"driver.run_warm_us", "us", span_median(t, "driver.run_warm")});
  m.push_back({"driver.steals", "count", steals / 20});

  std::string json;
  for (int rep = 0; rep < 10; ++rep) {
    Tracer::Scope sp = t.span("driver.to_json");
    json = an::to_json(warm_batch);
  }
  m.push_back({"driver.to_json_us", "us", span_median(t, "driver.to_json")});
  m.push_back({"driver.json_bytes", "bytes", static_cast<double>(json.size())});

  // protocol / client: against a live pncd (the run's, or a probe one).
  std::unique_ptr<Daemon> own;
  if (!r.daemon) own = std::make_unique<Daemon>(r.args.pncd, r.dir + "/pncd-probe");
  const std::string socket = r.daemon ? r.daemon->socket() : own->socket();
  for (int i = 0; i < 20; ++i) {
    Tracer::Scope sp = t.span("client.connect");
    if (!sv::Client::connect(socket)) ++client_failed;
  }
  auto client = sv::Client::connect(socket);
  if (!client) throw std::runtime_error("probe: cannot connect to pncd");
  for (int i = 0; i < 200; ++i) {
    sv::Response pong;
    Tracer::Scope sp = t.span("protocol.ping");
    if (!client->call(sv::Request{}, &pong)) ++client_failed;
  }
  m.push_back({"protocol.ping_rtt_us", "us", span_median(t, "protocol.ping")});
  m.push_back({"client.connect_us", "us", span_median(t, "client.connect")});

  // The workload's own request: RTT through pncd vs Server::handle in
  // process (no socket) over a private cache directory.
  sv::Request req = dir_request(r, r.w->name == "edit_reanalyze"
                                       ? sv::RequestKind::kTreeReanalyze
                                       : sv::RequestKind::kAnalyzeDir);
  if (r.w->name == "cold_scan") req.use_cache = false;
  const int reps = r.w->name == "cold_scan" ? 5 : 20;
  sv::Response wire;
  if (r.w->name == "cold_scan") {
    client->call(req, &wire);  // warm the probe daemon's page cache
  }
  // Its own span name: the loops' "client.call" spans include queueing
  // behind the other connection and the edit mix.
  for (int i = 0; i < reps; ++i) {
    Tracer::Scope sp = t.span("probe.client_call");
    if (!client->call(req, &wire)) ++client_failed;
    else if (!wire.ok) ++server_failed;
  }
  const std::vector<std::byte> encoded = sv::encode_response(wire);
  for (int i = 0; i < 20; ++i) {
    Tracer::Scope sp = t.span("protocol.decode_response");
    sv::decode_response(encoded);
  }
  m.push_back({"protocol.decode_response_us", "us",
               span_median(t, "protocol.decode_response")});
  m.push_back({"protocol.response_bytes", "bytes",
               static_cast<double>(encoded.size())});
  {
    sv::ServerOptions so;
    so.socket_path = r.dir + "/in-process.sock";  // never bound
    so.cache_dir = r.dir + "/in-process-cache";
    so.admin_enabled = false;
    sv::Server server(so);
    if (r.w->name == "edit_reanalyze") {
      server.handle(dir_request(r, sv::RequestKind::kTreeOpen));
    }
    if (r.w->name != "cold_scan") server.handle(req);  // warm
    for (int i = 0; i < reps; ++i) {
      Tracer::Scope sp = t.span("server.handle");
      if (!server.handle(req).ok) ++server_failed;
    }
  }
  const double handle_us = span_median(t, "server.handle");
  m.push_back({"server.handle_us", "us", handle_us});
  const double transport_us = span_median(t, "probe.client_call") - handle_us;
  m.push_back({"server.transport_us", "us", transport_us});
  m.push_back({"client.failed", "count", static_cast<double>(client_failed)});
  m.push_back({"server.failed", "count", static_cast<double>(server_failed)});

  // tree_manifest / manifest_codec: no-change scans, then one edit.
  an::TreeManifest manifest(root);
  manifest.commit(manifest.scan());
  for (int i = 0; i < 10; ++i) {
    Tracer::Scope sp = t.span("tree_manifest.scan");
    manifest.scan();
  }
  const double scan_us = span_median(t, "tree_manifest.scan");
  const std::size_t edited = r.tree.files.size() / 2;
  perfbench::write_file(r.tree.files[edited],
                        perfbench::edited_source(r.tree, edited, ++r.revision));
  an::ScanResult one_dirty = manifest.scan();
  {
    Tracer::Scope sp = t.span("tree_manifest.commit");
    manifest.commit(one_dirty);
  }
  for (int i = 0; i < 10; ++i) {
    Tracer::Scope sp = t.span("manifest_codec.encode");
    sv::encode_manifest(manifest);
  }
  m.push_back({"tree_manifest.scan_us", "us", scan_us});
  m.push_back({"tree_manifest.stat_calls", "count",
               static_cast<double>(one_dirty.stat_calls)});
  m.push_back({"tree_manifest.rehashes", "count",
               static_cast<double>(one_dirty.rehashes)});
  m.push_back({"tree_manifest.commit_us", "us",
               span_median(t, "tree_manifest.commit")});
  m.push_back({"manifest_codec.encode_us", "us",
               span_median(t, "manifest_codec.encode")});

  // disk_cache: store up to 32 results, reopen the directory (a daemon
  // restart), load them back.
  const std::string disk_dir = r.dir + "/probe-disk-cache";
  fs::remove_all(disk_dir);
  sv::DiskCacheOptions dco;
  dco.dir = disk_dir;
  dco.options_fingerprint = sv::analyzer_options_fingerprint({});
  const std::size_t stored = std::min<std::size_t>(32, warm_batch.files.size());
  {
    sv::DiskCache disk(dco);
    for (std::size_t i = 0; i < stored; ++i) {
      const an::FileReport& f = warm_batch.files[i];
      Tracer::Scope sp = t.span("disk_cache.store");
      disk.store(f.content_hash, f.source_length, f.result);
    }
  }
  double hit_ratio = 0;
  {
    sv::DiskCache disk(dco);
    for (std::size_t i = 0; i < stored; ++i) {
      const an::FileReport& f = warm_batch.files[i];
      Tracer::Scope sp = t.span("disk_cache.load");
      disk.load(f.content_hash, f.source_length);
    }
    const an::CacheStats st = disk.stats();
    hit_ratio = st.lookups() ? static_cast<double>(st.hits) /
                                   static_cast<double>(st.lookups())
                             : 0;
  }
  m.push_back({"disk_cache.store_us", "us", span_median(t, "disk_cache.store")});
  m.push_back({"disk_cache.load_us", "us", span_median(t, "disk_cache.load")});
  m.push_back({"disk_cache.hit_ratio", "ratio", hit_ratio});

  // Stage model of one op from the layer self times above; the
  // remainder is what the layers do not explain.
  auto get = [&](const std::string& name) {
    for (const Metric& x : m) {
      if (x.name == name) return x.value;
    }
    throw std::logic_error("no metric " + name);
  };
  const double ingest_us =
      files * (get("mapped_buffer.open_us") + get("driver.fnv1a_us"));
  double model_us = 0;
  double observed_ms = untraced_p50;
  if (r.w->name == "warm_serve") {
    model_us = get("driver.walk_us") + ingest_us + get("driver.run_warm_us") +
               get("driver.to_json_us") + transport_us;
  } else if (r.w->name == "cold_scan") {
    const double threads = std::max(1u, std::thread::hardware_concurrency());
    model_us = get("driver.walk_us") + ingest_us +
               phases.total_s() * 1e6 / threads + get("driver.to_json_us");
  } else {
    // The mean op of the measured loop, set against the mean latency
    // (the median op edits nothing): the share of ops that changed
    // something pays commit, manifest encode and render; each dirty file
    // pays analysis and a disk-cache store.
    observed_ms = untraced_mean;
    const double ops = static_cast<double>(std::max<std::uint64_t>(1, traffic.attempted));
    const double per_file_analyze_us = phases.total_s() * 1e6 / files;
    model_us = scan_us +
               static_cast<double>(traffic.edit_ops) / ops *
                   (get("tree_manifest.commit_us") +
                    get("manifest_codec.encode_us") +
                    get("driver.to_json_us")) +
               static_cast<double>(traffic.edited_files) / ops *
                   (per_file_analyze_us + get("disk_cache.store_us")) +
               transport_us;
  }
  m.push_back({"trace.untraced_p50_ms", "ms", untraced_p50});
  m.push_back({"trace.traced_p50_ms", "ms", traced_p50});
  m.push_back({"trace.overhead_ms", "ms", traced_p50 - untraced_p50});
  m.push_back({"trace.remainder_ms", "ms", observed_ms - model_us / 1000});
  return m;
}

// ---------------------------------------------------------------------------

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += quoted(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
           ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

/// Removes a run's scratch directory on every exit path; declared
/// before the Run so the daemons are stopped first.
struct DirCleanup {
  std::string path;
  ~DirCleanup() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

int run_benchmark(const Args& args) {
  const DirCleanup cleanup{std::string(kWorkDir) + "/" + args.workload + "-" +
                           std::to_string(args.seed) + "-" +
                           std::to_string(::getpid())};
  Run r;
  r.args = args;
  r.w = &workload(args.workload);
  r.dir = cleanup.path;
  fs::remove_all(r.dir);
  fs::create_directories(r.dir);
  fs::create_directories(kOutDir);

  // The set-ups are split around the measured loop, so setup_s samples
  // the disk at both ends of the run.
  const int setups_before = (r.w->setups + 1) / 2;
  std::vector<double> setups;
  for (int i = 0; i < setups_before; ++i) setups.push_back(setup_once(r, i));
  prepare_goldens(r);
  const Calibration cal = calibrate(r);
  const std::string isa = an::simd::isa_name(an::simd::active_isa());

  Samples s;
  std::vector<Metric> layers;
  std::string trace_file;
  const auto steal_before = cpu_steal_jiffies();
  if (!args.trace) {
    s = measure(r, args.seconds);
  } else {
    // Untraced and traced blocks alternate, so box drift during the run
    // lands on both sides of the overhead estimate.
    Samples traced;
    const int blocks = std::max(1, static_cast<int>(args.seconds / 2));
    for (int b = 0; b < 2 * blocks; ++b) {
      r.tracer.set_enabled(b % 2 == 1);
      (b % 2 ? traced : s).merge(measure(r, args.seconds / (2 * blocks)));
    }
    const double untraced_p50 = median(s.lat_ms);
    const double untraced_mean =
        std::accumulate(s.lat_ms.begin(), s.lat_ms.end(), 0.0) /
        static_cast<double>(std::max<std::size_t>(1, s.lat_ms.size()));
    const double traced_p50 = median(traced.lat_ms);
    s.merge(traced);
    r.tracer.set_enabled(true);
    layers = probe_layers(r, s, untraced_p50, untraced_mean, traced_p50);
    r.tracer.set_enabled(false);
    trace_file = std::string(kOutDir) + "/trace-" + args.workload + "-" +
                 std::to_string(args.seed) + ".json";
    std::ofstream(trace_file, std::ios::binary) << r.tracer.chrome_json();
  }
  const auto steal_after = cpu_steal_jiffies();
  const double steal_total = steal_after.second - steal_before.second;
  const double steal_pct =
      steal_total > 0
          ? 100 * (steal_after.first - steal_before.first) / steal_total
          : 0;
  const double rss_end = current_rss_mib(r);
  const double rss = r.rss_mib >= 0 ? r.rss_mib : rss_end;
  for (int i = setups_before; i < r.w->setups; ++i) {
    setups.push_back(setup_once(r, i));
  }
  r.daemon.reset();

  const std::uint64_t bad = s.client_failed + s.server_failed + s.wrong;
  const Windows windows(s, r.w->windows);
  std::size_t unused = 0, beyond = 0;
  const double p50 = windows.lowest_percentile(50, &unused);
  const double tail = windows.lowest_percentile(r.w->tail_pct, &beyond);
  const double ops_per_s = windows.highest_rate();
  const double tree_mib = static_cast<double>(r.tree.bytes) / (1024.0 * 1024.0);
  const std::vector<Metric> e2e = {
      {"setup_s", "s", median(setups)},
      {"p50_ms", "ms", p50},
      {"tail_ms", "ms", tail},
      {"ops_per_s", "1/s", ops_per_s},
      {"mib_per_s", "MiB/s", ops_per_s * tree_mib},
      {"peak_rss_mib", "MiB", rss},
  };
  const double error_pct =
      s.attempted ? 100.0 * static_cast<double>(bad) /
                        static_cast<double>(s.attempted)
                  : 100;

  std::ostringstream rec;
  rec << "{\"record\": {\"workload\": " << quoted(args.workload)
      << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"stamp\": {\"commit\": " << quoted(args.commit)
      << ", \"source_digest\": " << quoted(args.source_digest)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd_isa\": " << quoted(isa)
      << ", \"protocol.ping_rtt_us\": " << num(cal.ping_rtt_us)
      << ", \"analyzer.scalar_mib_per_s\": " << num(cal.scalar_mib_per_s)
      << ", \"cpu_steal_pct\": " << num(steal_pct)
      << "}, \"tree\": {\"files\": " << r.tree.files.size()
      << ", \"bytes\": " << r.tree.bytes << "}"
      << ", \"setup_s_each\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    rec << (i ? ", " : "") << num(setups[i]);
  }
  rec << "], \"tail_percentile\": " << num(r.w->tail_pct)
      << ", \"latency_windows\": " << r.w->windows
      << ", \"samples\": " << s.lat_ms.size()
      << ", \"whole_loop_ops_per_s\": "
      << num(static_cast<double>(s.lat_ms.size()) / s.wall_s)
      << ", \"samples_beyond_tail\": " << beyond
      << ", \"whole_loop_ms\": {\"p50\": " << num(median(s.lat_ms))
      << ", \"p90\": " << num(percentile(s.lat_ms, 90))
      << ", \"p99\": " << num(percentile(s.lat_ms, 99)) << "}"
      << ", \"peak_rss_read_after_ops\": "
      << std::min<std::uint64_t>(r.ops_done, r.w->rss_ops)
      << ", \"peak_rss_mib_end\": " << num(rss_end)
      << ", \"error_pct\": {\"value\": " << num(error_pct)
      << ", \"unit\": \"%\"}, \"wrong_outputs\": " << s.wrong
      << ", \"end_to_end\": " << metrics_json(e2e);
  if (args.trace) rec << ", \"trace_file\": " << quoted(trace_file);
  rec << "}}";
  std::cout << rec.str() << "\n";

  const bool correct = bad == 0 && s.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << s.attempted << ", \"failed\": " << bad
            << ", \"metrics\": " << metrics_json(args.trace ? layers : e2e)
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_benchmark(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 2;
  }
}
