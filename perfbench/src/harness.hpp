// The benchmark harness shared by every workload.
//
// A workload is a batch of independent jobs of one stencil kind.  Each job
// owns its arrays and its Stencil object and is driven through every public
// run path of the library: run_serial(kTrap), run() on the pool,
// run_serial(kLoopsSerial), run_supervised() with slab checkpoints, and
// resume() on freshly built arrays after a supervised run stopped by
// FaultPlan::kill_after_slab.  Every result is checked against oracles the
// workload computes without the library (see the workload files).
//
// A workload type W provides:
//   Cell, kDims, kDepth          cell type, dimensionality, temporal depth
//   Input                        one job's seeded inputs
//   kName, kSlabs, kKillAfterSlab, kReps (phase repetitions per round)
//   make_inputs(seed)            the batch's inputs, a pure function of seed
//   extents(in), steps(in), grid_points(in)
//   shape(), boundary(), kernel(in), init(in, array)
//   Expected, oracle(in)         the independent reference result
//   check(in, expected, array, result_time) -> std::vector<Check>
//   perturbations()              single-cell perturbations for the self-test
//   perturb(k, in, expected, array, result_time) -> Perturbation
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/boundary.hpp"
#include "core/stencil.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/health.hpp"
#include "resilience/supervisor.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scheduler.hpp"
#include "telemetry/export.hpp"
#include "telemetry/stats.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace pc = pochoir;
namespace rs = pochoir::resilience;
using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return since(t0);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string ckpt_dir;
  Clock::time_point main_entry;
};

// --- seeded inputs -----------------------------------------------------------

/// splitmix64 finalizer: a stateless hash, so any cell's initial value is a
/// pure function of (seed, index) and the oracles can regenerate inputs
/// without keeping a copy.  The benchmark's own generator keeps inputs
/// unchanged when the library's Rng changes.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

inline double unit_double(std::uint64_t seed, std::uint64_t index) {
  return static_cast<double>(mix64(seed ^ mix64(index)) >> 11) * 0x1.0p-53;
}

/// 64-bit hash of raw storage, eight bytes at a time; used to prove that
/// every engine leaves bit-identical storage.
inline std::uint64_t hash_bytes(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0x243F6A8885A308D3ull ^ bytes;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001B3ull;
    h ^= h >> 29;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001B3ull;
  return mix64(h);
}

// --- checks and results --------------------------------------------------------

/// Outcome of one named oracle or property check.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// One cell changed by the self-test, and what it must trip.
template <typename Cell>
struct Perturbation {
  Cell* cell = nullptr;
  Cell saved{};
  std::vector<std::string> must_fail;  ///< check names that have to fail
};

class Result {
 public:
  void fail(const std::string& what) {
    correct_ = false;
    if (errors_.size() < 16) errors_.push_back(what);
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Extra key for the runner script (removed before the final line).
  void extra(const std::string& key, const std::string& json_value) {
    extras_.emplace_back(key, json_value);
  }
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void print(std::FILE* out) const {
    for (const std::string& e : errors_) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
    }
    std::fprintf(out, "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                      "\"metrics\": {",
                 correct_ ? "true" : "false", static_cast<long long>(attempted),
                 static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const double v = std::isfinite(m.value) ? m.value : -1.0;
      std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    }
    std::fputs("}", out);
    for (const auto& [k, v] : extras_) {
      std::fprintf(out, ", \"%s\": %s", k.c_str(), v.c_str());
    }
    std::fputs("}\n", out);
    std::fflush(out);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::vector<std::string> errors_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> extras_;
};

/// How many times each phase runs in one round.
struct Reps {
  int trap_serial, trap_parallel, loops_serial, supervised, resume;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline int worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, 4u));
}

// --- one job -------------------------------------------------------------------

template <typename W>
class Job {
 public:
  using Cell = typename W::Cell;
  static constexpr int D = W::kDims;
  using Input = typename W::Input;
  using ArrayT = pc::Array<Cell, D>;

  explicit Job(const Input& in)
      : in_(&in),
        array_(W::extents(in), W::kDepth),
        stencil_(W::shape()),
        kernel_(W::kernel(in)) {
    array_.register_boundary(W::boundary());
    stencil_.register_arrays(array_);
  }
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  void init() {
    W::init(*in_, array_);
    stencil_.reset();
  }
  void trap_serial() {
    stencil_.run_serial(pc::Algorithm::kTrap, W::steps(*in_), kernel_);
  }
  void trap_parallel() { stencil_.run(W::steps(*in_), kernel_); }
  void loops_serial() {
    stencil_.run_serial(pc::Algorithm::kLoopsSerial, W::steps(*in_), kernel_);
  }
  rs::RunReport supervised(const rs::SupervisorOptions& o) {
    return stencil_.run_supervised(W::steps(*in_), kernel_, o);
  }
  rs::RunReport resume(const rs::SupervisorOptions& o) {
    return stencil_.resume(kernel_, o);
  }
  /// The TRAP walk with empty base cases: the geometry layer alone.
  void walk_only() {
    auto none = [](const pc::Zoid<D>&) {};
    stencil_.run_custom_base(pc::rt::SerialPolicy{}, W::steps(*in_), none, none);
    stencil_.reset();
  }

  const Input& input() const { return *in_; }
  ArrayT& array() { return array_; }
  std::int64_t result_time() const { return stencil_.result_time(); }
  std::uint64_t storage_hash() const {
    return hash_bytes(array_.data(),
                      static_cast<std::size_t>(array_.total_size()) * sizeof(Cell));
  }

 private:
  const Input* in_;
  ArrayT array_;
  pc::Stencil<D, Cell> stencil_;
  decltype(W::kernel(std::declval<const Input&>())) kernel_;
};

// --- the measured run ----------------------------------------------------------

template <typename W>
class Runner {
 public:
  using JobT = Job<W>;
  using Input = typename W::Input;

  Runner(const Args& args, Result& res) : args_(args), res_(res) {}

  int run() {
    std::optional<pc::trace::Session> session;
    if (args_.trace) session.emplace(std::string("perfbench ") + W::kName, true);

    setup();
    const double setup_s = since(args_.main_entry);
    std::fprintf(stderr,
                 "perfbench: %s seed=%llu workers=%d jobs=%zu setup %.3fs "
                 "(alloc %.3fs, init %.3fs, pool %.4fs)\n",
                 W::kName, static_cast<unsigned long long>(args_.seed),
                 workers_, jobs_.size(), setup_s, alloc_s_, init_s_, pool_s_);

    const double oracle_s = timed([&] {
      expected_.reserve(inputs_.size());
      for (const Input& in : inputs_) expected_.push_back(W::oracle(in));
    });
    std::fprintf(stderr, "perfbench: oracle %.3fs\n", oracle_s);

    if (args_.trace) {
      traced_round();
    } else {
      const auto t_measure = Clock::now();
      double last = 0;
      int rounds = 0;
      do {
        last = timed([&] { round(rounds == 0); });
        ++rounds;
      } while (since(t_measure) + last <= args_.seconds);
      std::fprintf(stderr, "perfbench: %d round(s) in %.2fs\n", rounds,
                   since(t_measure));
      res_.metric("setup_s", setup_s, "s");
      res_.metric("trap_serial_mpts", mpts(batch_s("trap_serial")), "Mpts/s");
      res_.metric("trap_parallel_mpts", mpts(batch_s("trap_parallel")), "Mpts/s");
      res_.metric("loops_serial_mpts", mpts(batch_s("loops_serial")), "Mpts/s");
      res_.metric("supervised_mpts", mpts(batch_s("supervised")), "Mpts/s");
      res_.metric("resume_s", batch_s("resume"), "s");
      res_.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    }
    if (session) {
      std::uint64_t dropped = 0;
      for (const auto& log : pc::trace::Tracer::instance().drain_copy()) {
        dropped += log.dropped;
      }
      res_.metric("telemetry.dropped_events", static_cast<double>(dropped), "count");
      session->finish();  // writes the Chrome trace named by POCHOIR_TRACE
    }
    std::error_code ec;
    std::filesystem::remove_all(args_.ckpt_dir, ec);
    return 0;
  }

 private:
  // --- set-up -------------------------------------------------------------

  void setup() {
    inputs_ = W::make_inputs(args_.seed);
    alloc_s_ = timed([&] {
      pc::trace::Span span("bench.alloc");
      for (const Input& in : inputs_) jobs_.push_back(std::make_unique<JobT>(in));
    });
    init_s_ = timed([&] {
      pc::trace::Span span("bench.init");
      for (auto& job : jobs_) job->init();
    });
    workers_ = worker_count();
    pool_s_ = timed([&] {
      pc::trace::Span span("bench.pool_start");
      pc::rt::Scheduler::set_num_threads(workers_);
      (void)pc::rt::Scheduler::instance();
    });
    ref_hash_.assign(jobs_.size(), 0);
    have_ref_.assign(jobs_.size(), false);
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      points_ += W::grid_points(inputs_[j]) * W::steps(inputs_[j]);
    }
  }

  // --- helpers --------------------------------------------------------------

  std::string job_dir(std::size_t j) const {
    return args_.ckpt_dir + "/job" + std::to_string(j);
  }
  void clear_checkpoints(std::size_t j) const {
    std::error_code ec;
    std::filesystem::remove_all(job_dir(j), ec);
  }
  std::int64_t slab_steps(std::size_t j) const {
    const std::int64_t steps = W::steps(inputs_[j]);
    return (steps + W::kSlabs - 1) / W::kSlabs;
  }
  std::int64_t slabs(std::size_t j) const {
    const std::int64_t s = slab_steps(j);
    return (W::steps(inputs_[j]) + s - 1) / s;
  }
  /// Checkpoint payload bytes from the workload definition alone.
  std::int64_t state_bytes(std::size_t j) const {
    return W::grid_points(inputs_[j]) * (W::kDepth + 1) *
           static_cast<std::int64_t>(sizeof(typename W::Cell));
  }
  rs::SupervisorOptions sup_options(std::size_t j) const {
    rs::SupervisorOptions o;
    o.slab_steps = slab_steps(j);
    o.checkpoint_path = job_dir(j) + "/state";
    o.health_check = true;
    // A parallel slab that throws is then a failed run, not a silent rerun on
    // the serial loops engine that supervised_mpts and resume_s would time.
    o.degrade_to_serial = false;
    return o;
  }

  /// Runs one operation, counting it; false when it threw.
  template <typename F>
  bool attempt(const char* phase, std::size_t j, F&& f) {
    ++res_.attempted;
    try {
      f();
      return true;
    } catch (const std::exception& e) {
      ++res_.failed;
      std::fprintf(stderr, "perfbench: %s job %zu threw: %s\n", phase, j, e.what());
      return false;
    }
  }

  /// Oracle and property checks plus the cross-engine storage comparison.
  void verify(std::size_t j, JobT& job, const char* phase) {
    for (const Check& c : W::check(inputs_[j], expected_[j], job.array(),
                                   job.result_time())) {
      res_.expect(c.ok, std::string(phase) + " job " + std::to_string(j) + ": " +
                            c.name + " " + c.detail);
    }
    const std::uint64_t h = job.storage_hash();
    if (!have_ref_[j]) {
      ref_hash_[j] = h;
      have_ref_[j] = true;
    } else {
      res_.expect(h == ref_hash_[j], std::string(phase) + " job " +
                                         std::to_string(j) +
                                         ": storage differs from the other engines");
    }
  }

  /// Shows that each check fails when one cell of the state it checks is
  /// changed, then restores the cell.  Runs on job 0 after an engine phase.
  void self_test() {
    JobT& job = *jobs_[0];
    std::map<std::string, bool> tripped;
    for (const Check& c : W::check(inputs_[0], expected_[0], job.array(),
                                   job.result_time())) {
      tripped[c.name] = false;
    }
    bool hash_tripped = true;
    for (int k = 0; k < W::perturbations(); ++k) {
      auto p = W::perturb(k, inputs_[0], expected_[0], job.array(),
                          job.result_time());
      std::map<std::string, bool> failed;
      for (const Check& c : W::check(inputs_[0], expected_[0], job.array(),
                                     job.result_time())) {
        failed[c.name] = !c.ok;
        if (!c.ok) tripped[c.name] = true;
      }
      // The cross-engine and resume checks compare storage hashes.
      hash_tripped = hash_tripped && job.storage_hash() != ref_hash_[0];
      *p.cell = p.saved;
      for (const std::string& name : p.must_fail) {
        res_.expect(failed[name], "self-test: check '" + name +
                                      "' missed perturbation " + std::to_string(k));
      }
    }
    for (const auto& [name, hit] : tripped) {
      res_.expect(hit, "self-test: no perturbation trips check '" + name + "'");
    }
    res_.expect(hash_tripped, "self-test: storage hash missed a perturbed cell");
    res_.expect(job.storage_hash() == ref_hash_[0],
                "self-test: state not restored after perturbation");
  }

  /// One engine over the whole batch; returns the summed wall time.
  /// `span` must be a string literal: the tracer stores the pointer.
  template <typename Fn>
  double engine_phase(const char* phase, const char* span, Fn fn) {
    double total = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      JobT& job = *jobs_[j];
      job.init();
      bool ok = false;
      const double t = timed([&] {
        pc::trace::Span s(span, static_cast<std::int64_t>(j));
        ok = attempt(phase, j, [&] { fn(job); });
      });
      total += t;
      if (!ok) continue;
      job_s_[phase].push_back(t);
      verify(j, job, phase);
    }
    return total;
  }

  double supervised_phase() {
    double total = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      JobT& job = *jobs_[j];
      clear_checkpoints(j);
      job.init();
      rs::RunReport rep;
      bool ok = false;
      const double t = timed([&] {
        pc::trace::Span s("bench.supervised", static_cast<std::int64_t>(j));
        ok = attempt("supervised", j, [&] { rep = job.supervised(sup_options(j)); });
      });
      total += t;
      if (ok && !rep.ok()) {
        ++res_.failed;
        std::fprintf(stderr, "perfbench: supervised job %zu: %s %s\n", j,
                     rs::to_string(rep.status), rep.message.c_str());
        ok = false;
      }
      if (ok) {
        job_s_["supervised"].push_back(t);
        const std::string tag = "supervised job " + std::to_string(j) + ": ";
        res_.expect(rep.steps_completed == W::steps(inputs_[j]), tag + "steps");
        res_.expect(rep.checkpoints_written == slabs(j), tag + "checkpoint count");
        res_.expect(rep.checkpoint_bytes == slabs(j) * state_bytes(j),
                    tag + "checkpoint_bytes " + std::to_string(rep.checkpoint_bytes) +
                        " != slabs x state bytes " +
                        std::to_string(slabs(j) * state_bytes(j)));
        verify(j, job, "supervised");
        sup_checkpoint_s_ += rep.checkpoint_seconds;
        sup_checkpoint_bytes_ += rep.checkpoint_bytes;
        sup_slab_s_ += rep.slab_seconds;
        expect_slabs_ += rep.slabs_completed;
        expect_ckpts_ += rep.checkpoints_written;
        expect_ckpt_s_ += rep.checkpoint_seconds;
      }
      clear_checkpoints(j);
    }
    return total;
  }

  /// A supervised run stopped after slab kKillAfterSlab, then resume() on a
  /// freshly built job; only resume() is timed.
  double resume_phase(double* load_s = nullptr) {
    double total = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      JobT& job = *jobs_[j];
      clear_checkpoints(j);
      job.init();
      rs::FaultPlan plan;
      plan.kill_after_slab = W::kKillAfterSlab;
      rs::SupervisorOptions killed = sup_options(j);
      killed.faults = &plan;
      rs::RunReport crash;
      {
        pc::trace::Span s("bench.killed_run", static_cast<std::int64_t>(j));
        if (!attempt("killed run", j, [&] { crash = job.supervised(killed); })) {
          continue;
        }
      }
      const std::int64_t done = (W::kKillAfterSlab + 1) * slab_steps(j);
      const std::string tag = "resume job " + std::to_string(j) + ": ";
      res_.expect(crash.status == rs::RunStatus::kSimulatedCrash &&
                      crash.steps_completed == done,
                  tag + "kill_after_slab did not stop the run at its slab");
      expect_slabs_ += crash.slabs_completed;
      expect_ckpts_ += crash.checkpoints_written;
      expect_ckpt_s_ += crash.checkpoint_seconds;
      if (load_s != nullptr) {
        std::optional<rs::LoadedCheckpoint> loaded;
        *load_s += timed([&] {
          pc::trace::Span s("bench.load_checkpoint", static_cast<std::int64_t>(j));
          loaded = rs::load_latest_checkpoint(job_dir(j) + "/state");
        });
        res_.expect(loaded && loaded->meta.steps_done == done,
                    tag + "load_latest_checkpoint did not return the killed slab");
      }
      auto fresh = std::make_unique<JobT>(inputs_[j]);
      rs::RunReport rep;
      bool ok = false;
      const double t = timed([&] {
        pc::trace::Span s("bench.resume", static_cast<std::int64_t>(j));
        ok = attempt("resume", j, [&] { rep = fresh->resume(sup_options(j)); });
      });
      total += t;
      if (ok && !rep.ok()) {
        ++res_.failed;
        std::fprintf(stderr, "perfbench: resume job %zu: %s %s\n", j,
                     rs::to_string(rep.status), rep.message.c_str());
        ok = false;
      }
      if (ok) {
        job_s_["resume"].push_back(t);
        res_.expect(rep.resumed && rep.steps_completed == W::steps(inputs_[j]) - done,
                    tag + "resume did not finish the remaining steps");
        expect_slabs_ += rep.slabs_completed;
        expect_ckpts_ += rep.checkpoints_written;
        expect_ckpt_s_ += rep.checkpoint_seconds;
        // verify() compares the resumed storage with the uninterrupted runs.
        verify(j, *fresh, "resume");
      }
      clear_checkpoints(j);
    }
    return total;
  }

  double mpts(double seconds) const {
    return static_cast<double>(points_) / seconds / 1e6;
  }

  // --- untraced rounds ---------------------------------------------------------

  /// The batch's time for one phase: jobs x the median per-job time over
  /// all rounds (for a single job, the median over rounds), so a short
  /// stall of the host moves a minority of samples rather than the figure.
  /// Only calls that succeeded are sampled; a phase none of whose calls
  /// succeeded has no median and its metric prints as -1.
  double batch_s(const std::string& phase) {
    return static_cast<double>(jobs_.size()) * median(job_s_[phase]);
  }

  /// Runs a phase `reps` times; returns the measured seconds.
  template <typename Phase>
  static double repeat(int reps, Phase&& phase) {
    double measured = 0;
    for (int r = 0; r < reps; ++r) measured += phase();
    return measured;
  }

  /// Every round runs the same calls: W::kReps repetitions of each phase,
  /// chosen so that each phase measures about 2 s or more per round.
  void round(bool first) {
    const double ts = repeat(W::kReps.trap_serial, [&] {
      return engine_phase("trap_serial", "bench.trap_serial",
                          [](JobT& j) { j.trap_serial(); });
    });
    if (first) self_test();
    const double tp = repeat(W::kReps.trap_parallel, [&] {
      return engine_phase("trap_parallel", "bench.trap_parallel",
                          [](JobT& j) { j.trap_parallel(); });
    });
    const double ls = repeat(W::kReps.loops_serial, [&] {
      return engine_phase("loops_serial", "bench.loops_serial",
                          [](JobT& j) { j.loops_serial(); });
    });
    const double sv = repeat(W::kReps.supervised, [&] { return supervised_phase(); });
    const double rs = repeat(W::kReps.resume, [&] { return resume_phase(); });
    std::fprintf(stderr,
                 "perfbench: round: %.2fs trap_serial, %.2fs trap_parallel, %.2fs "
                 "loops_serial, %.2fs supervised, %.2fs resume measured\n",
                 ts, tp, ls, sv, rs);
  }

  // --- traced round: per-layer metrics ----------------------------------------

  void traced_round() {
    namespace tm = pc::telemetry;
    const std::int64_t points = points_;
    auto walk = [] { return tm::walk_stats().snapshot(); };
    auto sched = [] { return pc::rt::Scheduler::counters_now(); };
    auto expect_points = [&](const char* phase, std::uint64_t got) {
      res_.expect(got == static_cast<std::uint64_t>(points),
                  std::string(phase) + ": telemetry counted " + std::to_string(got) +
                      " points, the workload defines " + std::to_string(points));
    };

    // The loops engine first: its per-step spans are the most numerous, so
    // they must not push the supervised spans out of the trace rings.
    tm::WalkCounters w0 = walk();
    engine_phase("loops_serial", "bench.loops_serial",
                 [](JobT& j) { j.loops_serial(); });
    const tm::WalkCounters loops = walk() - w0;
    expect_points("loops_serial", loops.points_loops);
    expect_points("loops_serial total", loops.points_total());

    w0 = walk();
    engine_phase("trap_serial", "bench.trap_serial", [](JobT& j) { j.trap_serial(); });
    const tm::WalkCounters ts = walk() - w0;
    expect_points("trap_serial", ts.points_total());
    expect_points("trap_serial interior+boundary",
                  ts.points_interior + ts.points_boundary);
    self_test();
    const double tp = static_cast<double>(ts.points_interior + ts.points_boundary);
    res_.metric("core.interior_points", static_cast<double>(ts.points_interior), "count");
    res_.metric("core.boundary_points", static_cast<double>(ts.points_boundary), "count");
    res_.metric("core.boundary_share", static_cast<double>(ts.points_boundary) / tp, "ratio");
    res_.metric("core.base_cases", static_cast<double>(ts.base_cases()), "count");
    res_.metric("core.mean_base_volume", tp / static_cast<double>(ts.base_cases()), "points");
    res_.metric("core.alloc_s", alloc_s_, "s");
    res_.metric("core.init_s", init_s_, "s");
    res_.metric("geometry.space_cuts", static_cast<double>(ts.space_cuts), "count");
    res_.metric("geometry.time_cuts", static_cast<double>(ts.time_cuts), "count");

    // trap_parallel with tracing and counters off, then on, alternating.
    auto& tracer = pc::trace::Tracer::instance();
    std::vector<double> off_s, on_s;
    tm::SchedulerCounters par{};
    for (int rep = 0; rep < 3; ++rep) {
      tracer.set_active(false);
      tm::set_enabled(false);
      off_s.push_back(engine_phase("trap_parallel", "bench.trap_parallel",
                                   [](JobT& j) { j.trap_parallel(); }));
      tracer.set_active(true);
      tm::set_enabled(true);
      const tm::SchedulerCounters s0 = sched();
      w0 = walk();
      on_s.push_back(engine_phase("trap_parallel", "bench.trap_parallel",
                                  [](JobT& j) { j.trap_parallel(); }));
      if (rep == 0) {
        par = sched() - s0;
        expect_points("trap_parallel", (walk() - w0).points_total());
        res_.expect(par.spawns == par.tasks_run,
                    "trap_parallel: spawns " + std::to_string(par.spawns) +
                        " != tasks_run " + std::to_string(par.tasks_run));
      }
    }
    res_.metric("telemetry.trace_overhead_s", median(on_s) - median(off_s), "s");
    res_.metric("runtime.spawns", static_cast<double>(par.spawns), "count");
    res_.metric("runtime.tasks_run", static_cast<double>(par.tasks_run), "count");
    res_.metric("runtime.steals", static_cast<double>(par.steals), "count");
    res_.metric("runtime.failed_steals", static_cast<double>(par.failed_steals), "count");
    res_.metric("runtime.steal_ratio", par.steal_ratio(), "ratio");
    res_.metric("runtime.idle_spins", static_cast<double>(par.idle_spins), "count");
    res_.metric("runtime.parks", static_cast<double>(par.parks), "count");
    res_.metric("runtime.pool_start_s", pool_s_, "s");
    res_.metric("runtime.fork_join_us", fork_join_us(), "us");

    supervised_phase();
    double load_s = 0;
    resume_phase(&load_s);
    res_.metric("resilience.checkpoint_s", sup_checkpoint_s_, "s");
    res_.metric("resilience.checkpoint_bytes", static_cast<double>(sup_checkpoint_bytes_),
                "bytes");
    res_.metric("resilience.checkpoint_mib_s",
                static_cast<double>(sup_checkpoint_bytes_) / 1048576.0 / sup_checkpoint_s_,
                "MiB/s");
    res_.metric("resilience.slab_s", sup_slab_s_, "s");
    res_.metric("resilience.crc32c_mib_s", crc32c_mib_s(), "MiB/s");
    res_.metric("resilience.load_s", load_s, "s");
    res_.metric("resilience.health_scan_s", health_scan_s(), "s");
    res_.metric("geometry.walk_only_s", walk_only_s(), "s");

    // Engine calls made while tracing was on: loops, trap_serial, three
    // traced trap_parallel passes and walk_only per job, plus one per slab.
    const auto traced_calls =
        static_cast<long long>(6 * jobs_.size()) + expect_slabs_;
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"slab\": %lld, \"checkpoint_io\": %lld, \"health_scan\": %lld, "
                  "\"stencil_run_min\": %lld, \"checkpoint_io_s\": %.9f}",
                  static_cast<long long>(expect_slabs_),
                  static_cast<long long>(expect_ckpts_),
                  static_cast<long long>(expect_slabs_), traced_calls, expect_ckpt_s_);
    res_.extra("trace_expect", buf);
  }

  /// Median wall time of an empty parallel_for over the worker count.
  double fork_join_us() {
    pc::trace::Span span("bench.fork_join");
    std::vector<double> us;
    const std::int64_t n = workers_;
    for (int rep = 0; rep < 2000; ++rep) {
      us.push_back(1e6 * timed([&] {
        pc::rt::parallel_for(0, n, 1, [](std::int64_t) {});
      }));
    }
    return median(us);
  }

  /// crc32c over a checkpoint-sized buffer (one job's storage), repeated
  /// until at least 0.2 s of work.
  double crc32c_mib_s() {
    pc::trace::Span span("bench.crc32c");
    JobT& job = *jobs_[0];
    const std::size_t bytes = static_cast<std::size_t>(state_bytes(0));
    std::uint32_t crc = 0;
    std::size_t done = 0;
    const double s = timed([&] {
      const auto t0 = Clock::now();
      do {
        crc = rs::crc32c(crc, job.array().data(), bytes);
        done += bytes;
      } while (since(t0) < 0.2);
    });
    std::fprintf(stderr, "perfbench: crc32c %08x over %zu bytes\n", crc, done);
    return static_cast<double>(done) / 1048576.0 / s;
  }

  double health_scan_s() {
    pc::trace::Span span("bench.health_scan");
    double total = 0;
    for (auto& job : jobs_) {
      rs::HealthIssue issue;
      total += timed([&] {
        rs::scan_array(job->array(), std::numeric_limits<double>::infinity(), 0, issue);
      });
      res_.expect(!issue.found, "scan_array flagged a healthy state: " + issue.message);
    }
    return total;
  }

  double walk_only_s() {
    double total = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      total += timed([&] {
        pc::trace::Span s("bench.walk_only", static_cast<std::int64_t>(j));
        attempt("walk_only", j, [&] { jobs_[j]->walk_only(); });
      });
    }
    return total;
  }

  const Args& args_;
  Result& res_;
  std::vector<Input> inputs_;
  std::vector<std::unique_ptr<JobT>> jobs_;
  std::vector<typename W::Expected> expected_;
  std::vector<std::uint64_t> ref_hash_;
  std::vector<bool> have_ref_;
  std::map<std::string, std::vector<double>> job_s_;  ///< per-job seconds by phase
  std::int64_t points_ = 0;
  int workers_ = 1;
  double alloc_s_ = 0, init_s_ = 0, pool_s_ = 0;
  double sup_checkpoint_s_ = 0, sup_slab_s_ = 0;
  std::int64_t sup_checkpoint_bytes_ = 0;
  std::int64_t expect_slabs_ = 0, expect_ckpts_ = 0;
  double expect_ckpt_s_ = 0;
};

}  // namespace perfbench
