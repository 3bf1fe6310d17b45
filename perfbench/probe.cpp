// perfbench_probe — the benchmark's in-process half (see perfbench/README.md).
//
//   perfbench_probe ready-replay [--trace-out FILE]
//       Build the default world and the OperationReplay exactly as
//       `auric replay` does before run(), print "ready" and exit. run.py
//       times process start to that line (the replay workload's setup_s).
//       Like `auric --trace-out`, the spans are written at exit.
//
//   perfbench_probe drive --port P --daemon-pid PID --seed S --plan PHASES
//                         --samples-out FILE
//       Open-loop load generator against a running `auric serve`: a seeded
//       Poisson schedule per phase, latency timed from each request's due
//       time, optional back-to-back POST /relearn, and a search for the
//       highest rate that meets the latency limit. Prints one JSON object
//       and appends every sampled ok body to FILE.
//
//   perfbench_probe expect --samples FILE --out FILE
//       Learn an engine in-process (the daemon's recipe) and write the
//       expected /recommend and /diff payload of every sampled request.
//
//   perfbench_probe layers --seed S --state-dir DIR --save-dir DIR --out FILE
//                          --trace-out FILE
//       Per-layer timings: calls into each module's public functions,
//       wrapped in spans that are written as JSONL at exit.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "config/catalog.h"
#include "config/ground_truth.h"
#include "config/rulebook.h"
#include "core/dependency.h"
#include "core/engine.h"
#include "core/param_view.h"
#include "core/voting.h"
#include "io/launch_state.h"
#include "netsim/attributes.h"
#include "netsim/generator.h"
#include "obs/trace.h"
#include "serve/daemon.h"
#include "smartlaunch/controller.h"
#include "smartlaunch/replay.h"
#include "util/args.h"
#include "util/rng.h"

namespace {

using namespace auric;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Quantile by nearest rank over a copy; +inf entries (misses) sort last.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "1e308";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? "," : "") + json_number(values[i]);
  return out + "]";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// The world every CLI subcommand builds by default (`--seed 1 --markets 28
/// --scale 55`), with its ground-truth configuration.
struct World {
  netsim::Topology topology;
  netsim::AttributeSchema schema;
  config::ParamCatalog catalog = config::ParamCatalog::standard();
  std::optional<config::GroundTruthModel> ground_truth;
  config::ConfigAssignment assignment;

  static netsim::TopologyParams params() { return {}; }

  void build() {
    topology = netsim::generate_topology(params());
    schema = netsim::AttributeSchema::standard(topology);
    build_config();
  }

  void build_config() {
    config::GroundTruthParams gt;
    gt.seed = params().seed + 6;  // `auric generate|replay|serve` use seed + 6
    ground_truth.emplace(topology, schema, catalog, gt);
    assignment = ground_truth->assign();
  }
};

/// One request of the open-loop schedule.
struct Request {
  double due_ms = 0.0;  ///< offset from the phase start
  int kind = 0;         ///< 0 /recommend, 1 /recommend with neighbor, 2 /diff
  netsim::CarrierId carrier = 0;
  netsim::CarrierId neighbor = netsim::kInvalidCarrier;
};

const char* kind_name(int kind) {
  return kind == 0 ? "recommend" : kind == 1 ? "recommend_pair" : "diff";
}

std::string target_of(const Request& r) {
  if (r.kind == 2) return "/diff?carrier=" + std::to_string(r.carrier);
  std::string t = "/recommend?carrier=" + std::to_string(r.carrier);
  if (r.kind == 1) t += "&neighbor=" + std::to_string(r.neighbor);
  return t;
}

/// Seeded Poisson arrivals at `rate` req/s over `seconds`, with the benchmark
/// mix: 60% /recommend, 10% /recommend with an X2 neighbour, 30% /diff, and
/// carriers uniform over the whole inventory.
std::vector<Request> make_schedule(const netsim::Topology& topology, std::uint64_t seed,
                                   double rate, double seconds) {
  util::Rng rng(seed);
  std::vector<Request> out;
  const auto carriers = static_cast<std::int64_t>(topology.carrier_count());
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) * 1000.0 / rate;
    if (t >= seconds * 1000.0) break;
    Request r;
    r.due_ms = t;
    const double u = rng.uniform();
    r.kind = u < 0.6 ? 0 : u < 0.7 ? 1 : 2;
    r.carrier = static_cast<netsim::CarrierId>(rng.uniform_int(0, carriers - 1));
    if (r.kind == 1) {
      while (topology.neighborhood(r.carrier).empty()) {
        r.carrier = static_cast<netsim::CarrierId>(rng.uniform_int(0, carriers - 1));
      }
      const auto& hood = topology.neighborhood(r.carrier);
      r.neighbor = hood[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hood.size()) - 1))];
    }
    out.push_back(r);
  }
  return out;
}

/// Every Nth request's ok body is kept for the output check.
constexpr std::size_t kSampleEvery = 50;
/// p99 limit of the capacity search, and the largest backlog growth allowed.
constexpr double kLimitMs = 5.0;
/// Pause before the first POST /relearn and between the following ones.
constexpr double kRelearnGapMs = 100.0;

/// Reader threads of the generator: one core is left for the thread that
/// issues the relearns, so the load never exceeds nproc threads.
int reader_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
}

/// Outcome classes counted per request.
enum Outcome { kOk = 0, kShed, kExpired, kHttpError, kRefused, kIoError, kOutcomes };
const char* kOutcomeNames[kOutcomes] = {"ok", "shed", "expired", "http_error", "refused",
                                        "io_error"};

struct Result {
  double start_ms = 0.0;  ///< when the request left, from the phase start
  double end_ms = 0.0;    ///< when its response completed
  double gen_lag_ms = 0.0;
  int outcome = kIoError;
  bool sent = false;
  std::string body;
};

/// One blocking HTTP/1.1 exchange over a fresh loopback connection (the
/// daemon answers with Connection: close). Returns the status code, or -1
/// when the connection was refused and -2 on any other socket failure.
int http_exchange(std::uint16_t port, const std::string& method, const std::string& target,
                  std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -2;
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    return err == ECONNREFUSED ? -1 : -2;
  }
  const std::string request = method + " " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      return -2;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  int status = -2;
  if (response.rfind("HTTP/1.", 0) == 0 && response.size() > 12) {
    status = std::atoi(response.c_str() + 9);
  }
  const std::size_t split = response.find("\r\n\r\n");
  if (status < 100 || split == std::string::npos) return -2;
  if (body != nullptr) *body = response.substr(split + 4);
  return status;
}

struct PhaseSpec {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
  int relearns = 0;  ///< POST /relearn calls, back to back; the reads stop after them
  int trials = 0;    ///< search only
};

struct RelearnRecord {
  double start_ms = 0.0;
  double end_ms = 0.0;
  int status = 0;
  bool swapped = false;
  long flips = -1;
};

struct PhaseStats {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
  std::size_t sent = 0;
  std::size_t counts[kOutcomes] = {};
  /// Medians over the phase's windows of each window's p50 and p99, so one
  /// stall of the shared machine moves one window and not the result.
  double p50_ms = 0.0, p99_ms = 0.0;
  /// p50 over the ok requests of send to response, without the wait for a
  /// free reader: the socket round trip that serve.transport_us starts from.
  double send_p50_ms = 0.0;
  double max_ms = 0.0;  ///< over the whole phase
  std::vector<double> window_p50, window_p99;
  double gen_lag_p99_ms = 0.0;
  double daemon_cpu_ms = 0.0;  ///< CPU time the daemon used over the phase
  double backlog_growth_ms = 0.0;  ///< late-phase minus early-phase queueing delay
  bool meets_limit = false;
  std::vector<RelearnRecord> relearns;
  std::vector<double> relearn_read_ms;  ///< latency of each read due while a relearn was in flight
  std::vector<std::pair<Request, std::string>> samples;  ///< ok responses kept for checking
};

/// Runs one open-loop phase. reader_threads() readers take requests in
/// schedule order; a free reader sleeps until the request's due time, a busy
/// pool sends it late, and either way latency is timed from the due time.
/// gen_lag is only the generator's own lateness: how far past
/// max(due, reader free) the send went out.
PhaseStats run_phase(const netsim::Topology& topology, std::uint16_t port, std::uint64_t seed,
                     const PhaseSpec& spec, bool keep_samples) {
  const std::vector<Request> schedule = make_schedule(topology, seed, spec.rate, spec.seconds);
  std::vector<Result> results(schedule.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> done{false};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double offset_ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(offset_ms));
  };

  const auto reader = [&] {
    // Sleep to just short of the due time, then spin: timer slack and
    // wake-up latency would otherwise show up as generator lag. A
    // shared VM wakes a sleeping thread hundreds of microseconds late in
    // its slow minutes, so the spin covers a millisecond.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const auto spin = std::chrono::milliseconds(1);
    double free_ms = -1e9;
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= schedule.size() || done.load()) return;
      const Request& r = schedule[i];
      const Clock::time_point due = at(r.due_ms);
      std::this_thread::sleep_until(due - spin);
      while (Clock::now() < due) {
      }
      if (done.load()) return;
      Result& out = results[i];
      out.sent = true;
      out.start_ms = ms_since(t0);
      out.gen_lag_ms = std::max(0.0, out.start_ms - std::max(r.due_ms, free_ms));
      std::string body;
      const int status = http_exchange(port, "GET", target_of(r), &body);
      out.end_ms = ms_since(t0);
      free_ms = out.end_ms;
      out.outcome = status == 200   ? kOk
                    : status == 503 ? kShed
                    : status == 504 ? kExpired
                    : status == -1  ? kRefused
                    : status < 0    ? kIoError
                                    : kHttpError;
      if (status == 200 && keep_samples && i % kSampleEvery == 0) out.body = std::move(body);
    }
  };

  PhaseStats stats;
  stats.name = spec.name;
  stats.rate = spec.rate;
  stats.seconds = spec.seconds;
  std::vector<std::thread> pool;
  for (int k = 0; k < reader_threads(); ++k) pool.emplace_back(reader);
  // The calling thread issues the relearns.
  if (spec.relearns > 0) {
    std::this_thread::sleep_until(at(kRelearnGapMs));
    for (int k = 0; k < spec.relearns; ++k) {
      RelearnRecord rec;
      rec.start_ms = ms_since(t0);
      std::string body;
      rec.status = http_exchange(port, "POST", "/relearn", &body);
      rec.end_ms = ms_since(t0);
      rec.swapped = rec.status == 200 && body.find("\"status\":\"swapped\"") != std::string::npos;
      // The audit object is the one place "flips" appears at top level.
      const std::size_t audit = body.find("\"audit\":{");
      const std::size_t flips =
          audit == std::string::npos ? std::string::npos : body.find("\"flips\":", audit);
      if (flips != std::string::npos) rec.flips = std::atol(body.c_str() + flips + 8);
      stats.relearns.push_back(rec);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kRelearnGapMs));
    }
    done.store(true);
  }
  for (std::thread& t : pool) t.join();

  const double inf = std::numeric_limits<double>::infinity();
  const int window_count = std::max(1, static_cast<int>(spec.seconds));
  const double window_ms = spec.seconds * 1000.0 / window_count;
  std::vector<std::vector<double>> windows(static_cast<std::size_t>(window_count));
  std::vector<double> latency, lag, during, queueing, round_trip;
  latency.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    if (!r.sent) continue;
    const double due = schedule[i].due_ms;
    ++stats.sent;
    ++stats.counts[r.outcome];
    const double l = r.outcome == kOk ? r.end_ms - due : inf;
    latency.push_back(l);
    lag.push_back(r.gen_lag_ms);
    queueing.push_back(r.start_ms - due);
    if (r.outcome == kOk) round_trip.push_back(r.end_ms - r.start_ms);
    windows[std::min(windows.size() - 1, static_cast<std::size_t>(due / window_ms))].push_back(l);
    for (const RelearnRecord& rl : stats.relearns) {
      if (due >= rl.start_ms && due < rl.end_ms) during.push_back(l);
    }
    if (!r.body.empty()) stats.samples.emplace_back(schedule[i], r.body);
  }
  for (const auto& w : windows) {
    if (w.empty()) continue;
    stats.window_p50.push_back(quantile(w, 0.5));
    stats.window_p99.push_back(quantile(w, 0.99));
  }
  stats.p50_ms = median(stats.window_p50);
  stats.p99_ms = median(stats.window_p99);
  stats.send_p50_ms = quantile(round_trip, 0.5);
  stats.max_ms = quantile(latency, 1.0);
  stats.gen_lag_p99_ms = quantile(lag, 0.99);
  stats.relearn_read_ms = std::move(during);
  // Growing backlog: queueing delay (send minus due) at the end of the phase
  // well above the start of it.
  const auto tenth = static_cast<std::ptrdiff_t>(
      std::min(queueing.size(), std::max<std::size_t>(1, queueing.size() / 10)));
  stats.backlog_growth_ms = median({queueing.end() - tenth, queueing.end()}) -
                            median({queueing.begin(), queueing.begin() + tenth});
  stats.meets_limit = stats.sent > 0 && stats.p99_ms <= kLimitMs &&
                      stats.backlog_growth_ms <= kLimitMs;
  return stats;
}

std::string phase_json(const PhaseStats& s) {
  std::string out = "{\"name\":\"" + s.name + "\",\"rate\":" + json_number(s.rate) +
                    ",\"seconds\":" + json_number(s.seconds) +
                    ",\"sent\":" + std::to_string(s.sent);
  for (int o = 0; o < kOutcomes; ++o) {
    out += ",\"" + std::string(kOutcomeNames[o]) + "\":" + std::to_string(s.counts[o]);
  }
  out += ",\"p50_ms\":" + json_number(s.p50_ms) + ",\"p99_ms\":" + json_number(s.p99_ms) +
         ",\"send_p50_ms\":" + json_number(s.send_p50_ms) +
         ",\"max_ms\":" + json_number(s.max_ms) +
         ",\"gen_lag_p99_ms\":" + json_number(s.gen_lag_p99_ms) +
         ",\"daemon_cpu_ms\":" + json_number(s.daemon_cpu_ms) +
         ",\"backlog_growth_ms\":" + json_number(s.backlog_growth_ms) +
         ",\"meets_limit\":" + (s.meets_limit ? "true" : "false") +
         ",\"window_p50\":" + json_array(s.window_p50) +
         ",\"window_p99\":" + json_array(s.window_p99) +
         ",\"relearn_read_ms\":" + json_array(s.relearn_read_ms) + ",\"relearns\":[";
  for (std::size_t i = 0; i < s.relearns.size(); ++i) {
    const RelearnRecord& r = s.relearns[i];
    if (i > 0) out += ',';
    out += "{\"ms\":" + json_number(r.end_ms - r.start_ms) +
           ",\"status\":" + std::to_string(r.status) +
           ",\"swapped\":" + (r.swapped ? "true" : "false") +
           ",\"flips\":" + std::to_string(r.flips) + "}";
  }
  return out + "]}";
}

/// Peak resident set of process `pid` (VmHWM), in MB; 0 when unreadable.
double peak_rss_mb(std::int64_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

/// CPU time process `pid` has used, user and system, exited threads
/// included (/proc/PID/stat), in ms.
double cpu_ms(std::int64_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/stat";
  std::ifstream f(path);
  const std::string stat((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  const std::size_t comm_end = stat.rfind(')');
  if (comm_end == std::string::npos) throw std::runtime_error("drive: cannot read " + path);
  // After the command name come fields 3 (state) onward; utime and stime
  // are fields 14 and 15, in clock ticks.
  std::istringstream fields(stat.substr(comm_end + 1));
  std::string skip;
  for (int field = 3; field < 14; ++field) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  if (!(fields >> utime >> stime)) throw std::runtime_error("drive: cannot parse " + path);
  return 1000.0 * static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// --plan "name:rate:seconds,...". Two names are special: "relearn:rate:count"
/// reads at `rate` while `count` POST /relearn calls run back to back, and
/// "search:first_rate:seconds_per_trial:trials" is the capacity search.
std::vector<PhaseSpec> parse_plan(const std::string& plan) {
  std::vector<PhaseSpec> out;
  std::stringstream items(plan);
  std::string item;
  while (std::getline(items, item, ',')) {
    std::stringstream fields(item);
    std::string name, rate, seconds, flag;
    std::getline(fields, name, ':');
    std::getline(fields, rate, ':');
    std::getline(fields, seconds, ':');
    std::getline(fields, flag, ':');
    if (name.empty() || rate.empty() || seconds.empty() || (name == "search" && flag.empty())) {
      throw std::invalid_argument("drive: bad --plan item '" + item + "'");
    }
    PhaseSpec spec{name, std::stod(rate), std::stod(seconds), 0, 0};
    if (name == "relearn") {
      // The schedule only bounds the phase; the readers stop after the last
      // relearn answers.
      spec.relearns = std::stoi(seconds);
      spec.seconds = 10.0 * spec.relearns;
    }
    if (name == "search") spec.trials = std::stoi(flag);
    out.push_back(spec);
  }
  return out;
}

int cmd_drive(util::Args& args) {
  const auto port = static_cast<std::uint16_t>(args.get_int("port", 0, "daemon port"));
  const auto daemon_pid =
      args.get_int("daemon-pid", 0, "daemon pid, for its peak RSS before the relearns");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1, "schedule seed"));
  const std::string plan = args.get_string("plan", "", "phases name:rate:seconds,...");
  const std::string samples_out = args.get_string("samples-out", "", "sampled ok bodies (TSV)");
  if (args.help_requested()) return 0;
  args.check_unknown();
  if (port == 0 || daemon_pid == 0 || samples_out.empty()) {
    throw std::invalid_argument("drive: --port, --daemon-pid and --samples-out are required");
  }

  World world;
  world.topology = netsim::generate_topology(World::params());

  std::string phases, trials;
  std::vector<std::pair<Request, std::string>> samples;
  std::uint64_t phase_seed = seed * 1000003ULL;
  double best = 0.0;
  double hwm_before_relearn = 0.0;
  for (const PhaseSpec& spec : parse_plan(plan)) {
    if (spec.relearns > 0) hwm_before_relearn = peak_rss_mb(daemon_pid);
    if (spec.name != "search") {
      const double cpu_before = cpu_ms(daemon_pid);
      PhaseStats s = run_phase(world.topology, port, ++phase_seed, spec, true);
      s.daemon_cpu_ms = cpu_ms(daemon_pid) - cpu_before;
      samples.insert(samples.end(), s.samples.begin(), s.samples.end());
      phases += (phases.empty() ? "" : ",") + phase_json(s);
      continue;
    }
    // Grow by 1.3x until a trial misses the limit, then bisect geometrically.
    double lo = 0.0, hi = 0.0, rate = spec.rate;
    for (int step = 0; step < spec.trials; ++step) {
      const PhaseStats s = run_phase(world.topology, port, ++phase_seed,
                                     {"search", rate, spec.seconds, 0, 0}, false);
      trials += (trials.empty() ? "" : ",") + phase_json(s);
      if (s.meets_limit) {
        lo = std::max(lo, rate);
      } else {
        hi = hi == 0.0 ? rate : std::min(hi, rate);
      }
      rate = hi == 0.0 ? rate * 1.3 : lo > 0.0 ? std::sqrt(lo * hi) : rate / 1.3;
      // Let a missed trial's queue drain before the next one starts.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    best = lo;
  }
  std::string out = "{\"phases\":[" + phases + "],\"search\":[" + trials + "]" +
                    ",\"daemon_peak_rss_mb_before_relearn\":" + json_number(hwm_before_relearn);
  out += ",\"max_qps\":" + json_number(best) + "}";
  std::printf("%s\n", out.c_str());

  std::ofstream f(samples_out, std::ios::app);  // one file across the run's daemons
  for (const auto& [r, body] : samples) {
    f << kind_name(r.kind) << '\t' << r.carrier << '\t' << r.neighbor << '\t' << body << '\n';
  }
  if (!f) throw std::runtime_error("drive: cannot write " + samples_out);
  return 0;
}

// --- expected payloads -------------------------------------------------------

std::string recs_json(const config::ParamCatalog& catalog,
                      const std::vector<core::Recommendation>& recs) {
  std::string out = "[";
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const core::Recommendation& rec = recs[i];
    const config::ParamDef& def = catalog.at(rec.param);
    char buf[512];
    std::string value;
    if (rec.value != config::kUnset) {
      std::snprintf(buf, sizeof buf, ",\"value\":%g", def.domain.value(rec.value));
      value = buf;
    }
    std::snprintf(buf, sizeof buf,
                  "%s{\"param\":\"%s\"%s,\"source\":\"%s\",\"votes\":%d,\"group_size\":%d,"
                  "\"support\":%.4f,\"margin\":%.4f}",
                  i == 0 ? "" : ",", json_escape(def.name).c_str(), value.c_str(),
                  core::recommendation_source_name(rec.source), rec.votes, rec.group_size,
                  rec.support, rec.margin);
    out += buf;
  }
  return out + "]";
}

int cmd_expect(util::Args& args) {
  const std::string samples = args.get_string("samples", "", "TSV written by drive");
  const std::string out_path = args.get_string("out", "", "expected payloads (JSONL)");
  if (args.help_requested()) return 0;
  args.check_unknown();
  World world;
  world.build();
  // The daemon's recipe: default AuricOptions, a rule-book from the ground
  // truth, and a LaunchController seeded with the world seed.
  const core::AuricEngine engine(world.topology, world.schema, world.catalog, world.assignment);
  const config::Rulebook rulebook(*world.ground_truth, world.catalog);
  const smartlaunch::LaunchController controller(engine, rulebook, world.assignment, {}, {},
                                                 World::params().seed);
  std::ifstream in(samples);
  std::ofstream out(out_path);
  std::string line;
  while (std::getline(in, line)) {
    std::stringstream fields(line);
    std::string kind, carrier_s, neighbor_s;
    std::getline(fields, kind, '\t');
    std::getline(fields, carrier_s, '\t');
    std::getline(fields, neighbor_s, '\t');
    const auto carrier = static_cast<netsim::CarrierId>(std::stol(carrier_s));
    const auto neighbor = static_cast<netsim::CarrierId>(std::stol(neighbor_s));
    if (kind == "diff") {
      std::vector<smartlaunch::LaunchController::PlannedChange> vendor;
      const auto changes = controller.plan_changes_detailed(carrier, &vendor);
      std::string body = "{\"carrier\":" + carrier_s + ",\"slots\":" +
                         std::to_string(vendor.size()) + ",\"changes\":[";
      for (std::size_t i = 0; i < changes.size(); ++i) {
        const auto& c = changes[i];
        const config::ParamDef& def = world.catalog.at(c.slot.param);
        body += (i == 0 ? "{" : ",{") + std::string("\"param\":\"") + json_escape(def.name) +
                "\",\"mo_path\":\"" + json_escape(c.slot.mo_path) + "\"";
        char buf[64];
        if (c.vendor_value != config::kUnset) {
          std::snprintf(buf, sizeof buf, ",\"vendor\":%g", def.domain.value(c.vendor_value));
          body += buf;
        }
        if (c.new_value != config::kUnset) {
          std::snprintf(buf, sizeof buf, ",\"new\":%g", def.domain.value(c.new_value));
          body += buf;
        }
        body += "}";
      }
      out << body << "]}\n";
    } else {
      const auto recs = kind == "recommend_pair" ? engine.recommend_pairwise(carrier, neighbor)
                                                 : engine.recommend_singular(carrier);
      out << "{\"carrier\":" << carrier_s
          << ",\"recommendations\":" << recs_json(world.catalog, recs) << "}\n";
    }
  }
  if (!out) throw std::runtime_error("expect: cannot write " + out_path);
  return 0;
}

// --- replay setup -------------------------------------------------------------

int cmd_ready_replay(util::Args& args) {
  const std::string trace_out = args.get_string("trace-out", "", "span JSONL, written at exit");
  if (args.help_requested()) return 0;
  args.check_unknown();
  // `auric replay` defaults: robust push with the KPI gate, ModelWatch on.
  // The window length is only read by run().
  smartlaunch::ReplayOptions options;
  options.robust = true;
  options.rollback.enabled = true;
  World world;
  world.build();
  const smartlaunch::OperationReplay replay(world.topology, world.schema, world.catalog,
                                            *world.ground_truth, world.assignment, options);
  std::printf("ready %zu\n", world.topology.carrier_count());
  std::fflush(stdout);
  if (!trace_out.empty()) obs::write_trace_file(obs::TraceRecorder::global(), trace_out);
  return 0;
}

// --- per-layer timings ---------------------------------------------------------

struct LayerOut {
  std::string json = "{";
  void put(const std::string& name, double value) {
    json += (json.size() > 1 ? ",\"" : "\"") + name + "\":" + json_number(value);
  }
};

template <typename F>
double time_ms(F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  return ms_since(start);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

int cmd_layers(util::Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1, "sample seed"));
  const std::string state_dir =
      args.get_string("state-dir", "", "checkpoint directory a replay left behind");
  const std::string save_dir = args.get_string("save-dir", "", "directory for checkpoint saves");
  const std::string out_path = args.get_string("out", "", "layer metrics (JSON)");
  const std::string trace_out = args.get_string("trace-out", "", "span JSONL");
  constexpr int reps = 3;           // repetitions of each whole-phase timing
  constexpr int samples = 3000;     // calls timed per recommend/plan/handle kind
  if (args.help_requested()) return 0;
  args.check_unknown();
  if (state_dir.empty() || save_dir.empty() || out_path.empty() || trace_out.empty()) {
    throw std::invalid_argument(
        "layers: --state-dir, --save-dir, --out and --trace-out are required");
  }
  LayerOut out;
  World world;

  {
    obs::ScopedSpan span("bench.netsim");
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
      ms.push_back(time_ms([&] { world.topology = netsim::generate_topology(World::params()); }));
    }
    out.put("netsim.topology_ms", median(ms));
    world.schema = netsim::AttributeSchema::standard(world.topology);
  }
  {
    obs::ScopedSpan span("bench.config");
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) ms.push_back(time_ms([&] { world.build_config(); }));
    out.put("config.assign_ms", median(ms));
  }

  // Learn: the whole single-threaded engine build, then its public phases.
  std::optional<core::AuricEngine> engine;
  {
    obs::ScopedSpan span("bench.core.learn");
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
      engine.reset();
      ms.push_back(time_ms([&] {
        engine.emplace(world.topology, world.schema, world.catalog, world.assignment);
      }));
    }
    out.put("core.learn_ms", median(ms));
  }
  {
    obs::ScopedSpan span("bench.core.learn_phases");
    const core::AuricOptions defaults;
    core::DependencyOptions dep;
    dep.p_value = defaults.p_value;
    dep.max_dependent = defaults.max_dependent;
    const auto codes = world.schema.encode_all(world.topology);
    double view_ms = 0.0, chi_ms = 0.0, voting_ms = 0.0;
    std::size_t rows = 0, groups = 0;
    for (std::size_t p = 0; p < world.catalog.size(); ++p) {
      const auto param = static_cast<config::ParamId>(p);
      core::ParamView view;
      view_ms += time_ms([&] {
        view = core::build_param_view(world.topology, world.catalog, world.assignment, param);
      });
      core::DependencyModel deps;
      chi_ms += time_ms([&] {
        const core::ContingencyState state = core::build_contingency(view, codes, world.schema);
        deps = core::dependencies_from_contingency(state, dep);
      });
      std::optional<core::BackoffVoting> voting;
      voting_ms += time_ms([&] { voting.emplace(view, deps.dependent, codes, defaults.backoff_levels); });
      rows += view.rows();
      for (int level = 0; level < voting->level_count(); ++level) {
        groups += voting->model_at(level).group_count();
      }
    }
    out.put("core.param_view_ms", view_ms);
    out.put("core.chi_square_ms", chi_ms);
    out.put("core.voting_build_ms", voting_ms);
    out.put("core.learn_rows", static_cast<double>(rows));
    out.put("core.voting_groups", static_cast<double>(groups));
  }

  // Recommend: random carrier order over the whole inventory.
  util::Rng rng(seed * 7919 + 1);
  const auto carriers = static_cast<std::int64_t>(world.topology.carrier_count());
  const auto random_carrier = [&] {
    return static_cast<netsim::CarrierId>(rng.uniform_int(0, carriers - 1));
  };
  const auto random_edge = [&] {
    netsim::CarrierId c = random_carrier();
    while (world.topology.neighborhood(c).empty()) c = random_carrier();
    const auto& hood = world.topology.neighborhood(c);
    return std::make_pair(c, hood[static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(hood.size()) - 1))]);
  };
  std::size_t source_counts[3] = {0, 0, 0};
  {
    obs::ScopedSpan span("bench.core.recommend");
    std::vector<double> singular_us, pairwise_us;
    for (int i = 0; i < samples; ++i) {
      const netsim::CarrierId c = random_carrier();
      std::vector<core::Recommendation> recs;
      singular_us.push_back(1000.0 * time_ms([&] { recs = engine->recommend_singular(c); }));
      for (const auto& r : recs) ++source_counts[static_cast<int>(r.source)];
      const auto [a, b] = random_edge();
      pairwise_us.push_back(1000.0 * time_ms([&] { recs = engine->recommend_pairwise(a, b); }));
      for (const auto& r : recs) ++source_counts[static_cast<int>(r.source)];
    }
    out.put("core.recommend_singular_us_p50", quantile(singular_us, 0.5));
    out.put("core.recommend_singular_us_p99", quantile(singular_us, 0.99));
    out.put("core.recommend_pairwise_us_p50", quantile(pairwise_us, 0.5));
    out.put("core.recommend_pairwise_us_p99", quantile(pairwise_us, 0.99));
    const double total =
        static_cast<double>(source_counts[0] + source_counts[1] + source_counts[2]);
    out.put("core.source_local_frac", static_cast<double>(source_counts[0]) / total);
    out.put("core.source_global_frac", static_cast<double>(source_counts[1]) / total);
    out.put("core.source_default_frac", static_cast<double>(source_counts[2]) / total);
  }
  {
    // The engine's decision path, one vote kernel at a time: the local vote
    // over the X2 neighbourhood, then the leave-one-out global vote.
    obs::ScopedSpan span("bench.core.vote");
    const core::AuricOptions defaults;
    double local_ns = 0.0, global_ns = 0.0;
    std::size_t local_calls = 0, global_calls = 0, accepted = 0, tried = 0;
    double level_sum = 0.0;
    for (int i = 0; i < samples * 4; ++i) {
      const auto param = static_cast<config::ParamId>(
          rng.uniform_int(0, static_cast<std::int64_t>(world.catalog.size()) - 1));
      const bool pairwise = world.catalog.at(param).kind == config::ParamKind::kPairwise;
      netsim::CarrierId carrier = random_carrier();
      netsim::CarrierId neighbor = netsim::kInvalidCarrier;
      if (pairwise) std::tie(carrier, neighbor) = random_edge();
      const core::ParamView& view = engine->view(param);
      const core::BackoffVoting& model = engine->voting(param);
      std::int64_t self_row = -1;
      for (std::uint32_t row : view.rows_of(carrier)) {
        if (view.neighbor[row] == neighbor) self_row = static_cast<std::int64_t>(row);
      }
      std::optional<core::BackoffVoting::Decision> decision;
      local_ns += 1e6 * time_ms([&] {
        decision = model.local(view, world.topology.neighborhood(carrier), carrier, neighbor,
                               self_row, defaults.vote_threshold);
      });
      ++local_calls;
      tried += decision ? static_cast<std::size_t>(decision->level + 1)
                        : static_cast<std::size_t>(model.level_count());
      if (!decision && self_row >= 0) {
        const ml::ClassLabel own = view.label[static_cast<std::size_t>(self_row)];
        global_ns += 1e6 * time_ms([&] {
          decision = model.vote_excluding(carrier, neighbor, own, defaults.vote_threshold);
        });
        ++global_calls;
        tried += decision ? static_cast<std::size_t>(decision->level + 1)
                          : static_cast<std::size_t>(model.level_count());
      }
      if (decision) {
        ++accepted;
        level_sum += decision->level;
      }
    }
    out.put("core.local_vote_ns", local_ns / static_cast<double>(std::max<std::size_t>(1, local_calls)));
    out.put("core.global_vote_ns",
            global_ns / static_cast<double>(std::max<std::size_t>(1, global_calls)));
    out.put("core.backoff_level_mean", level_sum / static_cast<double>(std::max<std::size_t>(1, accepted)));
    out.put("core.vote_accept_ratio",
            static_cast<double>(accepted) / static_cast<double>(std::max<std::size_t>(1, tried)));
  }
  {
    obs::ScopedSpan span("bench.smartlaunch.plan");
    const config::Rulebook rulebook(*world.ground_truth, world.catalog);
    const smartlaunch::LaunchController controller(*engine, rulebook, world.assignment, {}, {},
                                                   World::params().seed);
    std::vector<double> us;
    for (int i = 0; i < samples; ++i) {
      const netsim::CarrierId c = random_carrier();
      std::vector<smartlaunch::LaunchController::PlannedChange> vendor;
      us.push_back(1000.0 * time_ms([&] { (void)controller.plan_changes_detailed(c, &vendor); }));
    }
    out.put("smartlaunch.plan_us", quantile(us, 0.5));
  }
  {
    obs::ScopedSpan span("bench.io.checkpoint");
    io::LaunchStateStore::Options options;
    options.fsync = false;  // matches the replay run's --checkpoint-fsync false
    const io::LaunchStateStore source(state_dir, options);
    io::LaunchState state;
    std::vector<double> load_ms, save_ms;
    for (int i = 0; i < reps; ++i) load_ms.push_back(time_ms([&] { state = source.load(); }));
    std::uint64_t bytes = 0;
    for (int i = 0; i < reps; ++i) {
      const std::string dir = save_dir + "/save" + std::to_string(i);
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      const io::LaunchStateStore sink(dir, options);
      save_ms.push_back(time_ms([&] { sink.save(state); }));
      bytes = dir_bytes(dir);
    }
    out.put("io.checkpoint_load_ms", median(load_ms));
    out.put("io.checkpoint_save_ms", median(save_ms));
    out.put("io.checkpoint_bytes", static_cast<double>(bytes));
  }
  engine.reset();
  {
    // ServeDaemon::handle() in-process: admission, bulkhead, pool hop,
    // engine and rendering, with no socket.
    obs::ScopedSpan span("bench.serve.handle");
    serve::ServeOptions options;
    options.seed = World::params().seed;
    serve::ServeDaemon daemon(world.topology, world.schema, world.catalog, world.assignment,
                              *world.ground_truth, options);
    daemon.warm_up();
    // One stream with the generator's mix; `mix` pools it for the transport
    // estimate, `us` splits it by endpoint.
    std::vector<double> us[3], mix;
    for (int i = 0; i < samples * 2; ++i) {
      Request r;
      const double u = rng.uniform();
      r.kind = u < 0.6 ? 0 : u < 0.7 ? 1 : 2;
      if (r.kind == 1) {
        std::tie(r.carrier, r.neighbor) = random_edge();
      } else {
        r.carrier = random_carrier();
      }
      obs::HttpRequest request;
      request.method = "GET";
      request.target = target_of(r);
      int status = 0;
      mix.push_back(1000.0 * time_ms([&] { status = daemon.handle(request).status; }));
      us[r.kind].push_back(mix.back());
      if (status != 200) throw std::runtime_error("layers: handle() answered " + std::to_string(status));
    }
    for (int k = 0; k < 3; ++k) {
      out.put(std::string("serve.handle_us_") + kind_name(k) + "_p50", quantile(us[k], 0.5));
      out.put(std::string("serve.handle_us_") + kind_name(k) + "_p99", quantile(us[k], 0.99));
    }
    out.put("serve.handle_us_mix_p50", quantile(mix, 0.5));
  }
  std::ofstream f(out_path);
  f << out.json << "}\n";
  if (!f) throw std::runtime_error("layers: cannot write " + out_path);
  obs::write_trace_file(obs::TraceRecorder::global(), trace_out);
  return 0;
}

int usage() {
  std::fputs("usage: perfbench_probe <ready-replay|drive|expect|layers> [flags]\n", stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    util::Args args(argc - 1, argv + 1);
    int rc = 0;
    if (command == "ready-replay") rc = cmd_ready_replay(args);
    else if (command == "drive") rc = cmd_drive(args);
    else if (command == "expect") rc = cmd_expect(args);
    else if (command == "layers") rc = cmd_layers(args);
    else return usage();
    if (args.help_requested()) std::fputs(args.usage().c_str(), stdout);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
