// pbench: executes one round of one benchmark workload against the BrickSim
// libraries and writes its raw measurements as JSON.
//
//   pbench <sweep_all|kernel_straggler|serve_mixed> --inputs FILE
//          --result FILE [--trace FILE]
//
// run.py generates the inputs file from the benchmark seed, starts one
// pbench process per round (so each round's peak RSS is its own), and
// reduces the results.  A round records the CLOCK_MONOTONIC instant at
// which its first timed op could start ("ready_s"); run.py subtracts its
// own spawn instant to get the set-up time.  `--trace FILE` (traced build
// only) arms the span recorder and writes the Chrome trace at exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/json.h"
#include "dsl/stencil.h"
#include "harness/registry.h"
#include "memsim/hierarchy.h"
#include "model/launcher.h"
#include "model/progmodel.h"
#include "serve/server.h"
#include "simt/execplan.h"
#include "trace.h"

namespace {

namespace bs = bricksim;
using bs::json::Value;
using perfbench::trace::Span;
using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of this process, all threads included.
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
             1e6;
}

Value doubles(const std::vector<double>& xs) {
  Value a = Value::array();
  for (double x : xs) a.push_back(x);
  return a;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs `bricksim <args...>` in process, as the `bricksim` binary would.
int driver(const std::vector<std::string>& args) {
  std::vector<const char*> argv{"bricksim"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return bs::harness::driver_main(static_cast<int>(argv.size()),
                                  argv.data());
}

// --- sweep_all ----------------------------------------------------------------
//
// Cold `bricksim all` against an empty cache directory (the timed op), and
// closed-loop windows of warm renders: one experiment emitted from a filled
// sweep cache through a fresh SweepProvider -- the work `bricksim serve`'s
// experiment op does per request.  When the previous round's directory is
// given, half the renders run against it before the cold run, so the warm
// op samples the host on both sides of it.  Each render must equal the
// output.txt of the cold run that filled its cache; run.py digests every
// tables.json.

Value sweep_all(const Value& in) {
  const std::string dir = in.at("workdir").as_string();
  const std::string prev =
      in.contains("previous") ? in.at("previous").as_string() : "";
  const int n = static_cast<int>(in.at("n").as_long());
  const int jobs = static_cast<int>(in.at("jobs").as_long());
  Value res = Value::object();
  res["ready_s"] = now_s();
  if (in.contains("setup_only")) return res;

  bs::harness::SweepConfig config;
  config.domain = {n, n, n};
  config.jobs = jobs;
  std::vector<double> warm;
  int warm_failed = 0;
  const Value& ops = in.at("warm_ops");
  auto renders = [&](const std::string& from, std::size_t lo,
                     std::size_t hi) {
    std::map<std::string, std::string> expected;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::string& name = ops[i].as_string();
      if (!expected.count(name))
        expected[name] = read_file(from + "/cold/" + name + "/output.txt");
      const bs::harness::Experiment* exp = bs::harness::find_experiment(name);
      if (exp == nullptr) throw std::runtime_error("unknown experiment " + name);
      std::ostringstream text;
      const double t0 = now_s();
      {
        Span span("bench.warm_render");
        bs::harness::SweepProvider provider(from + "/cache");
        bs::harness::ExperimentContext ctx(config, &provider, &text);
        exp->emit(ctx);
      }
      warm.push_back(now_s() - t0);
      if (text.str() != expected[name]) ++warm_failed;
    }
  };
  const std::size_t split = prev.empty() ? 0 : ops.size() / 2;
  renders(prev, 0, split);

  const double w0 = now_s(), c0 = cpu_s();
  int rc = 0;
  {
    Span span("bench.cold_all");
    rc = driver({"all", "--n=" + std::to_string(n),
                 "--jobs=" + std::to_string(jobs), "--out=" + dir + "/cold",
                 "--cache-dir=" + dir + "/cache"});
  }
  res["wall_s"] = now_s() - w0;
  res["cpu_s"] = cpu_s() - c0;
  res["rc"] = rc;
  if (rc == 0) renders(dir, split, ops.size());
  res["warm_failed"] = warm_failed;
  res["warm_s"] = doubles(warm);
  return res;
}

// --- kernel_straggler ---------------------------------------------------------
//
// One (stencil, variant, platform) config alone: repeated sharded launches
// (the timed op) between windows of Launcher::prepare calls, the launch
// front end that `bricksim lint` runs per config (the warm op).  Optionally replays
// one plan serially and sharded and compares the reports bit for bit.

/// Every counter and timing field of a KernelReport, exactly.
std::string canon(const bs::simt::KernelReport& r) {
  const bs::memsim::Traffic& t = r.traffic;
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "l1r=%llu l1w=%llu l2r=%llu l2w=%llu hbmr=%llu hbmw=%llu l1h=%llu "
      "l1m=%llu l2h=%llu l2m=%llu blocks=%llu insts=%llu flops=%llu "
      "spill=%llu t_hbm=%a t_l2=%a t_issue=%a seconds=%a",
      static_cast<unsigned long long>(t.l1_read_bytes),
      static_cast<unsigned long long>(t.l1_write_bytes),
      static_cast<unsigned long long>(t.l2_read_bytes),
      static_cast<unsigned long long>(t.l2_write_bytes),
      static_cast<unsigned long long>(t.hbm_read_bytes),
      static_cast<unsigned long long>(t.hbm_write_bytes),
      static_cast<unsigned long long>(t.l1_hits),
      static_cast<unsigned long long>(t.l1_misses),
      static_cast<unsigned long long>(t.l2_hits),
      static_cast<unsigned long long>(t.l2_misses),
      static_cast<unsigned long long>(r.blocks_run),
      static_cast<unsigned long long>(r.warp_insts),
      static_cast<unsigned long long>(r.flops_executed),
      static_cast<unsigned long long>(r.spill_bytes), r.t_hbm, r.t_l2,
      r.t_issue, r.seconds);
  return buf;
}

bs::codegen::Variant variant_named(const std::string& name) {
  for (auto v : {bs::codegen::Variant::Array, bs::codegen::Variant::ArrayCodegen,
                 bs::codegen::Variant::BricksCodegen})
    if (bs::codegen::variant_name(v) == name) return v;
  throw std::runtime_error("unknown variant " + name);
}

Value kernel_straggler(const Value& in) {
  bs::dsl::Stencil stencil = bs::dsl::Stencil::cube(
      static_cast<int>(in.at("radius").as_long()));
  const Value& coeffs = in.at("coefficients");
  if (coeffs.size() != stencil.groups().size())
    throw std::runtime_error("expected one coefficient per symmetry group");
  for (std::size_t g = 0; g < coeffs.size(); ++g)
    stencil.set_coefficient(stencil.groups()[g].coeff, coeffs[g].as_double());
  const bs::codegen::Variant variant =
      variant_named(in.at("variant").as_string());
  const std::string label = in.at("platform").as_string();
  std::vector<bs::model::Platform> platforms = bs::model::paper_platforms();
  const auto it = std::find_if(
      platforms.begin(), platforms.end(),
      [&](const bs::model::Platform& p) { return p.label() == label; });
  if (it == platforms.end()) throw std::runtime_error("no platform " + label);
  const bs::model::Platform& platform = *it;
  const int n = static_cast<int>(in.at("n").as_long());
  const int shards = static_cast<int>(in.at("shards").as_long());
  bs::model::Launcher launcher({n, n, n});
  launcher.set_shards(shards);

  Value res = Value::object();
  res["ready_s"] = now_s();
  if (in.contains("setup_only")) return res;
  // Prepare windows interleave with the launches, so the warm op samples
  // the host across the whole round rather than in one burst.
  const long launches = in.at("launches").as_long();
  const long per_window = in.at("prepares").as_long() / (launches + 1);
  std::vector<double> wall, cpu, warm;
  std::set<std::string> reports;
  for (long i = 0; i <= launches; ++i) {
    for (long j = 0; j < per_window; ++j) {
      const double t0 = now_s();
      Span span("bench.prepare");
      const bs::model::PreparedLaunch p =
          launcher.prepare(stencil, variant, platform);
      warm.push_back(now_s() - t0);
    }
    if (i == launches) break;
    const double w0 = now_s(), c0 = cpu_s();
    Span span("bench.launch");
    const bs::model::LaunchResult r = launcher.run(stencil, variant, platform);
    wall.push_back(now_s() - w0);
    cpu.push_back(cpu_s() - c0);
    reports.insert(canon(r.report));
  }
  res["wall_s"] = doubles(wall);
  res["cpu_s"] = doubles(cpu);
  res["warm_s"] = doubles(warm);
  Value reps = Value::array();
  for (const std::string& r : reports) reps.push_back(r);
  res["reports"] = reps;

  if (in.at("check_serial").as_bool()) {
    // Same plan, same hierarchy object: serial replay, then sharded.
    const bs::model::PreparedLaunch prep =
        launcher.prepare(stencil, variant, platform);
    const bs::simt::ExecPlan plan(prep.kernel, platform.gpu,
                                  bs::simt::ExecMode::CountersOnly);
    bs::memsim::MemoryHierarchy hier(platform.gpu);
    double t0 = now_s();
    const bs::simt::KernelReport serial = plan.replay(hier);
    const double serial_s = now_s() - t0;
    t0 = now_s();
    const bs::simt::KernelReport sharded = plan.replay_sharded(hier, shards);
    const double sharded_s = now_s() - t0;
    res["serial_equal"] = serial == sharded;
    res["serial_report"] = canon(serial);
    res["serial_replay_s"] = serial_s;
    res["sharded_replay_s"] = sharded_s;
  }
  return res;
}

// --- serve_mixed --------------------------------------------------------------
//
// An in-process `bricksim serve` (fresh cache directory, memo byte budget
// below the warm working set) driven in two phases: the cold requests one
// at a time, then warm traffic open loop: each connection thread sends its
// requests at their scheduled instants, one outstanding request per
// connection, and every latency is timed from the scheduled instant.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// The part of a reply that must not depend on timing: sweep replies vary
/// in admission/status (memo, disk, simulated, coalesced), never in content.
std::string reply_canon(const Value& req, const Value& reply) {
  std::ostringstream os;
  os << "ok=" << (reply.contains("ok") && reply.at("ok").as_bool());
  if (req.at("op").as_string() == "sweep") {
    for (const char* k : {"fingerprint", "measurements", "failures", "error"})
      if (reply.contains(k)) os << " " << k << "=" << reply.at(k).dump();
  } else {
    for (const char* k : {"status", "failures", "error"})
      if (reply.contains(k)) os << " " << k << "=" << reply.at(k).dump();
    if (reply.contains("output"))
      os << " output_fnv=" << std::hex
         << fnv1a(reply.at("output").as_string());
  }
  return os.str();
}

std::string request_key(const Value& req) {
  std::string key = req.at("op").as_string();
  for (const char* k : {"kind", "name", "n"})
    if (req.contains(k))
      key += " " + (req.at(k).kind() == Value::Kind::String
                        ? req.at(k).as_string()
                        : req.at(k).dump());
  return key;
}

/// Closes a client socket on every path out of its sender thread.
struct Fd {
  explicit Fd(int f) : fd(f) {}
  ~Fd() { ::close(fd); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int fd;
};

struct Sample {
  std::string cls;  ///< "warm" or "cold"
  std::string key;
  std::string status;
  double sched = 0, latency = 0;
  double wait = 0;  ///< send instant minus scheduled instant
  double lag = 0;   ///< the part of `wait` the connection was already free
  bool ok = false;
};

Value serve_mixed(const Value& in) {
  const std::string dir = in.at("workdir").as_string();
  bs::serve::ServerOptions opts;
  opts.socket_path = dir + "/sock";
  opts.cache_dir = dir + "/cache";
  opts.memo_bytes = static_cast<std::size_t>(in.at("memo_bytes").as_long());
  opts.io_timeout_ms = 60000;
  bs::serve::Server server(opts);
  {
    Span span("serve.start");
    server.start();
  }
  std::exception_ptr run_error;
  std::thread serving([&] {
    try {
      server.run();
    } catch (...) {
      run_error = std::current_exception();
    }
  });

  Value res = Value::object();
  // Distinct timing-independent reply contents per request key, each with
  // the first full reply that produced it; run.py checks each against its
  // digest (a failed reply never matches) and keeps a mismatching reply.
  std::map<std::string, std::map<std::string, std::string>> canons;
  std::mutex canon_mu;
  auto record = [&](const Value& req, const Value& reply) {
    std::string canon = reply_canon(req, reply);
    std::lock_guard<std::mutex> lock(canon_mu);
    auto& seen = canons[request_key(req)];
    if (!seen.count(canon)) seen.emplace(std::move(canon), reply.dump());
  };

  try {
    {
      Span span("serve.prime");
      Value hz = Value::object();
      hz["op"] = "healthz";
      bs::serve::client_call(opts.socket_path, hz);
      const Value& prime = in.at("prime");
      for (std::size_t i = 0; i < prime.size(); ++i)
        record(prime[i], bs::serve::client_call(opts.socket_path, prime[i]));
    }
    res["ready_s"] = now_s();
    // A set-up-only spawn (run.py measures setup_s on several) stops here.
    if (!in.contains("setup_only")) {
      // One request on `fd`, sent at `sched` and timed from it; `free_at`
      // is when the connection's previous reply landed.
      auto exchange = [&](int fd, const Value& item, double sched,
                          double free_at) {
        Sample s;
        s.cls = item.at("class").as_string();
        s.sched = sched;
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(s.sched))));
        const double sent = now_s();
        s.wait = sent - s.sched;
        s.lag = sent - std::max(s.sched, free_at);
        const Value& req = item.at("req");
        Value reply;
        {
          Span span(s.cls == "cold" ? "serve.request.cold"
                                    : "serve.request.warm");
          bs::serve::write_frame(fd, req.dump());
          const auto frame = bs::serve::read_frame(fd);
          if (!frame) throw std::runtime_error("server closed connection");
          reply = Value::parse(*frame);
        }
        s.latency = now_s() - s.sched;
        s.key = request_key(req);
        s.ok = reply.contains("ok") && reply.at("ok").as_bool();
        s.status =
            reply.contains("status") ? reply.at("status").as_string() : "";
        record(req, reply);
        return s;
      };

      // Cold phase: the cold requests one after another on a connection
      // of their own.  The warm phase starts once they have landed: warm
      // requests that shared every core with a cold sweep measured the
      // scheduler, not the daemon.
      const Value& schedule = in.at("schedule");
      const double c0 = cpu_s();
      const double t_cold = now_s();
      std::vector<Sample> cold;
      {
        const Fd conn(bs::serve::connect_client(opts.socket_path));
        double free_at = t_cold;
        for (std::size_t i = 0; i < schedule.size(); ++i) {
          if (schedule[i].at("class").as_string() != "cold") continue;
          cold.push_back(exchange(conn.fd, schedule[i], now_s(), free_at));
          free_at = now_s();
        }
      }

      // Warm phase, open loop: one thread per connection; requests carry
      // their connection index.  A short lead lets every sender thread
      // connect before its first slot.
      const double t_start = now_s() + in.at("lead_s").as_double();
      const int conns = static_cast<int>(in.at("connections").as_long());
      std::vector<std::vector<Sample>> samples(static_cast<std::size_t>(conns));
      std::vector<std::thread> senders;
      std::vector<std::exception_ptr> errors(static_cast<std::size_t>(conns));
      for (int c = 0; c < conns; ++c) {
        senders.emplace_back([&, c] {
          try {
            const Fd conn(bs::serve::connect_client(opts.socket_path));
            double free_at = t_start;
            for (std::size_t i = 0; i < schedule.size(); ++i) {
              const Value& item = schedule[i];
              if (item.at("class").as_string() != "warm" ||
                  item.at("conn").as_long() != c)
                continue;
              const Sample s = exchange(
                  conn.fd, item, t_start + item.at("t").as_double(), free_at);
              free_at = s.sched + s.latency;
              samples[static_cast<std::size_t>(c)].push_back(s);
            }
          } catch (...) {
            errors[static_cast<std::size_t>(c)] = std::current_exception();
          }
        });
      }
      for (std::thread& t : senders) t.join();
      samples.push_back(cold);
      double t_end = t_start;
      for (const auto& conn : samples)
        for (const Sample& s : conn)
          t_end = std::max(t_end, s.sched + s.latency);
      res["wall_s"] = t_end - t_cold;
      res["cpu_s"] = cpu_s() - c0;
      for (const std::exception_ptr& e : errors)
        if (e) std::rethrow_exception(e);

      Value out = Value::array();
      for (const auto& conn : samples)
        for (const Sample& s : conn) {
          Value v = Value::object();
          v["class"] = s.cls;
          v["key"] = s.key;
          v["status"] = s.status;
          v["t"] = s.sched - t_start;
          v["latency_s"] = s.latency;
          v["wait_s"] = s.wait;
          v["lag_s"] = s.lag;
          v["ok"] = s.ok;
          out.push_back(v);
        }
      res["samples"] = out;

      // Framing + JSON with no broker work, after the load has drained.
      std::vector<double> rtt;
      Value hz = Value::object();
      hz["op"] = "healthz";
      for (long i = 0; i < in.at("healthz_probes").as_long(); ++i) {
        const double t0 = now_s();
        Span span("serve.healthz");
        bs::serve::client_call(opts.socket_path, hz);
        rtt.push_back(now_s() - t0);
      }
      res["healthz_s"] = doubles(rtt);
      Value cq = Value::object();
      cq["op"] = "counters";
      res["counters"] =
          bs::serve::client_call(opts.socket_path, cq).at("counters");
    }
  } catch (...) {
    server.stop();
    serving.join();
    throw;
  }
  server.stop();
  serving.join();
  if (run_error) std::rethrow_exception(run_error);

  Value cv = Value::object();
  for (const auto& [key, seen] : canons) {
    Value v = Value::object();
    for (const auto& [canon, reply] : seen) v[canon] = reply;
    cv[key] = v;
  }
  res["replies"] = cv;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, inputs, result, trace_path;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto value = [&]() -> std::string {
      if (a + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++a];
    };
    try {
      if (arg == "--inputs") inputs = value();
      else if (arg == "--result") result = value();
      else if (arg == "--trace") trace_path = value();
      else if (workload.empty() && arg.rfind("--", 0) != 0) workload = arg;
      else throw std::runtime_error("unknown argument " + arg);
    } catch (const std::exception& e) {
      std::cerr << "pbench: " << e.what() << "\n";
      return 2;
    }
  }
  if (workload.empty() || inputs.empty() || result.empty()) {
    std::cerr << "usage: pbench <sweep_all|kernel_straggler|serve_mixed> "
                 "--inputs FILE --result FILE [--trace FILE]\n";
    return 2;
  }
#ifndef PBENCH_TRACED
  if (!trace_path.empty()) {
    std::cerr << "pbench: --trace needs the traced build (pbench_traced)\n";
    return 2;
  }
#endif
  try {
    if (!trace_path.empty()) perfbench::trace::arm();
    const Value in = Value::parse(read_file(inputs));
    Value res;
    if (workload == "sweep_all") res = sweep_all(in);
    else if (workload == "kernel_straggler") res = kernel_straggler(in);
    else if (workload == "serve_mixed") res = serve_mixed(in);
    else throw std::runtime_error("unknown workload " + workload);
    if (!trace_path.empty()) perfbench::trace::write_chrome_trace(trace_path);
    std::ofstream out(result);
    out << res.dump(1) << "\n";
    if (!out) throw std::runtime_error("cannot write " + result);
  } catch (const std::exception& e) {
    std::cerr << "pbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
