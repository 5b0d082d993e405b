// Benchmark driver: runs one workload of the repository benchmark and writes
// every end-to-end and per-layer metric it measured (perfbench/README.md).
//
//   perfbench_driver prepare
//       Trains/quantizes network1 and network2 into $SEI_CACHE_DIR (no-op
//       when the cache is warm).
//   perfbench_driver run --workload W --seed N --seconds S --trace 0|1
//                        --work-dir DIR --out FILE.json
//       Runs workload W and writes the report to FILE.json; prints a
//       human-readable summary. Exit code 1 when any output was wrong.
//
// Every layer is measured from outside: the driver times calls into public
// functions (data loading, workload preparation, SeiNetwork/AdcNetwork
// construction, predict/error_rate, FleetRuntime start/submit) and reads
// what the program already publishes (FleetStats, ThreadPool::stats(), the
// metrics registry, the fleet.* spans). With --trace 1 the telemetry tracer
// is armed, the driver's own bench.* spans wrap each timed call, and the
// drained spans become per-layer self times.
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "arch/live_energy.hpp"
#include "common/cli.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "core/adc_network.hpp"
#include "core/sei_network.hpp"
#include "core/simd_caps.hpp"
#include "exec/thread_pool.hpp"
#include "reliability/repair.hpp"
#include "serve/fleet.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "workloads/pipeline.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace sei;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload settings. Changing any of these changes the benchmark: do it in
// a change of its own and re-measure the baseline.

// Set-ups per run; setup_s is their median. The first is the one the run
// uses; the others follow once its memory high-water mark is read, so
// peak_rss_mb does not depend on how the allocator reuses their memory.
constexpr int kSetups = 5;
// Pool threads of every timed phase. On a shared 4-vCPU host a parallel
// region measures the scheduler: two threads of equal work took 1.0x to
// 1.6x the time of one from run to run. At one pool thread the serving
// dispatcher and the load generator each have a CPU of their own. The
// batch gate also runs at the host's full effective concurrency, and a
// traced batch run times the pool there (exec.*).
constexpr int kThreads = 1;
constexpr const char* kTenants = "A:2,B:1";
constexpr int kShards = 3;
constexpr int kMaxBatch = 16;
constexpr int kProbeEvery = 16;

// Serving requests are cut into windows of consecutive sends; a percentile
// (and the closed loop's answer rate) is the median over the windows, so
// one stall of the host moves one window, not the figure. The open loop,
// which has no periodic work, cuts every kOpenWindow requests (ten beyond
// the p99); the closed loop cuts every kCheckpointEvery requests, so each
// window holds exactly one checkpoint set and its cost.
constexpr int kOpenWindow = 1000;

// serve-net2-open: Poisson arrivals at each rate of the ladder in turn,
// seconds / steps each. Every step, the top one too, stayed within the
// 1 ms p99 limit on the 4-vCPU host the settings were chosen on, so no
// step turns into a backlog or rejections.
constexpr double kLadder[] = {5000.0, 10000.0, 20000.0, 30000.0};
constexpr int kRefStep = 2;            // step whose p50/p99 are the headline
constexpr double kSloP99Ms = 1.0;      // latency limit of serve.max_rate_in_slo
constexpr int kOpenQueue = 16384;      // per-tenant admission bound
constexpr auto kSpinAhead = std::chrono::microseconds(200);

// serve-net1-ckpt: closed loop, clients split 2:1 over the tenants.
constexpr int kClients = 48;
constexpr int kClosedQueue = 64;       // >= clients of either tenant
constexpr int kCheckpointEvery = 8192; // dispatches between checkpoint sets

constexpr long long kSpinIters = 20'000'000;  // host calibration loop

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest whole percentile that still has at least ten samples beyond
/// it (0 when there are fewer than 11 samples).
int trusted_percentile(std::size_t n) {
  if (n < 11) return 0;
  const double p = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  return std::min(99, static_cast<int>(std::floor(p)));
}

/// Simulated quantities summed in floating point over run-dependent batch
/// boundaries differ in the last bits; ten significant digits are exact.
double sim_digits(double v) {
  if (v == 0.0) return 0.0;
  const int digits = static_cast<int>(std::floor(std::log10(std::fabs(v))));
  const double scale = std::pow(10.0, 9 - digits);
  return std::round(v * scale) / scale;
}

std::span<const float> image_of(const data::Dataset& d, int i) {
  const std::size_t per =
      d.images.numel() / static_cast<std::size_t>(d.size());
  return {d.images.data() + static_cast<std::size_t>(i) * per, per};
}

/// Times `fn` and, when tracing is armed, records it as span `name`.
template <typename Fn>
double timed(const char* name, Fn&& fn) {
  telemetry::Span span(name);
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Report: every metric by name with its unit, plus free-form notes.

struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
  long long attempted = 0;
  long long failed = 0;  // wrong answers, rejections, deadline misses
  long long wrong = 0;   // outputs that disagree with their reference

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& text) {
    notes.emplace_back(key, text);
  }
  void fail(const std::string& what) {
    ++failed;
    if (failed <= 20) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  void mismatch(const std::string& what) {
    ++wrong;
    fail("wrong output: " + what);
  }
};

double metric(const Report& rep, const std::string& name) {
  for (const Report::Metric& m : rep.metrics)
    if (m.name == name) return m.value;
  SEI_CHECK_MSG(false, "metric not measured yet: " << name);
  return 0.0;
}

/// Every span drained so far in a traced run (written out as a Chrome trace
/// at the end); returns the events of this drain.
std::vector<telemetry::TraceEvent>& all_spans() {
  static std::vector<telemetry::TraceEvent> events;
  return events;
}

std::vector<telemetry::TraceEvent> keep_spans() {
  std::vector<telemetry::TraceEvent> fresh = telemetry::Tracer::drain();
  all_spans().insert(all_spans().end(), fresh.begin(), fresh.end());
  return fresh;
}

// ---------------------------------------------------------------------------
// Host fingerprint and capacity calibration.

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string simd_caps() {
  std::string s;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) s += "avx2 ";
  if (__builtin_cpu_supports("bmi2")) s += "bmi2 ";
  if (__builtin_cpu_supports("avx512f")) s += "avx512f ";
  if (__builtin_cpu_supports("avx512vpopcntdq")) s += "avx512vpopcntdq ";
#endif
  s += core::kHaveAvx512 ? "(avx512 kernels built)"
                         : "(portable kernels built)";
  return s;
}

/// Wall time of a fixed xorshift loop run by `threads` threads at once.
double spin_ms(int threads) {
  static std::atomic<std::uint64_t> sink{0};
  const auto work = [] {
    std::uint64_t x = 88172645463325252ULL;
    for (long long i = 0; i < kSpinIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> ts;
  for (int t = 1; t < threads; ++t) ts.emplace_back(work);
  work();
  for (std::thread& t : ts) t.join();
  return ms_between(t0, Clock::now());
}

/// One-thread loops that other tenants of the host can slow while the spin
/// loop does not notice: a streaming sum over 24 MB (memory bandwidth), a
/// dependent walk through 8 MB (memory latency), and vector popcounts over
/// an L1-resident buffer (the SIMD ports a busy sibling hyperthread
/// shares). Their buffers are mapped from the kernel, not the allocator:
/// freed large blocks raise glibc's mmap threshold, and the later set-up
/// then peaked 24 MB higher.
struct MemCalib {
  double stream_ms = 0.0, chase_ms = 0.0, simd_ms = 0.0;
};

template <typename T>
class Mapped {
 public:
  explicit Mapped(std::size_t n) : n_(n) {
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    SEI_CHECK_MSG(p != MAP_FAILED, "mmap of a calibration buffer failed");
    p_ = static_cast<T*>(p);
  }
  ~Mapped() { munmap(p_, n_ * sizeof(T)); }
  Mapped(const Mapped&) = delete;
  Mapped& operator=(const Mapped&) = delete;
  std::span<T> span() { return {p_, n_}; }

 private:
  T* p_;
  std::size_t n_;
};

MemCalib mem_calib() {
  static std::atomic<std::uint64_t> sink{0};
  MemCalib c;
  {
    Mapped<std::uint64_t> map(std::size_t{3} << 20);
    const std::span<std::uint64_t> buf = map.span();
    std::fill(buf.begin(), buf.end(), 1);
    const Clock::time_point t0 = Clock::now();
    std::uint64_t sum = 0;
    for (int pass = 0; pass < 8; ++pass)
      for (std::uint64_t v : buf) sum += v;
    c.stream_ms = ms_between(t0, Clock::now());
    sink.fetch_add(sum, std::memory_order_relaxed);
  }
  {
    const std::size_t n = std::size_t{1} << 20;
    Mapped<std::uint32_t> order_map(n), next_map(n);
    const std::span<std::uint32_t> order = order_map.span();
    const std::span<std::uint32_t> next = next_map.span();
    std::iota(order.begin(), order.end(), 0U);
    Rng rng = Rng::fork(12345, 0);
    rng.shuffle(order);
    for (std::size_t i = 0; i < n; ++i) next[order[i]] = order[(i + 1) % n];
    const Clock::time_point t0 = Clock::now();
    std::uint32_t at = 0;
    for (std::size_t i = 0; i < n; ++i) at = next[at];
    c.chase_ms = ms_between(t0, Clock::now());
    sink.fetch_add(at, std::memory_order_relaxed);
  }
  {
    std::vector<std::uint64_t> buf(2048);
    for (std::size_t i = 0; i < buf.size(); ++i)
      buf[i] = 0x9E3779B97F4A7C15ULL * (i + 1);
    const Clock::time_point t0 = Clock::now();
    std::uint64_t sum = 0;
    for (std::uint64_t r = 0; r < 100000; ++r)
      for (std::uint64_t v : buf) sum += std::popcount(v ^ r);
    c.simd_ms = ms_between(t0, Clock::now());
    sink.fetch_add(sum, std::memory_order_relaxed);
  }
  return c;
}

void host_block(Report& rep) {
  const int wide = exec::ThreadPool::effective_concurrency();
  std::vector<double> one, many, stream, chase, simd;
  for (int r = 0; r < 3; ++r) {
    one.push_back(spin_ms(1));
    many.push_back(spin_ms(wide));
    const MemCalib c = mem_calib();
    stream.push_back(c.stream_ms);
    chase.push_back(c.chase_ms);
    simd.push_back(c.simd_ms);
  }
  rep.note("host.nproc",
           std::to_string(std::thread::hardware_concurrency()));
  rep.note("host.effective_concurrency",
           std::to_string(exec::ThreadPool::effective_concurrency()));
  rep.note("host.threads", std::to_string(exec::default_threads()) +
                                " pool thread(s) in timed phases");
  rep.note("host.cpu", cpu_model());
  rep.note("host.simd", simd_caps());
  rep.note("host.build", PERFBENCH_BUILD_TYPE);
  rep.add("host.calib_1t_ms", median(one), "ms");
  rep.add("host.calib_nt_ms", median(many), "ms");
  rep.add("host.calib_stream_ms", median(stream), "ms");
  rep.add("host.calib_chase_ms", median(chase), "ms");
  rep.add("host.calib_simd_ms", median(simd), "ms");
}

/// The load generator gets a CPU of its own, so it never takes turns with
/// the fleet it measures: spawn_elsewhere() before the fleet starts its
/// threads (they inherit the other CPUs), generator_cpu() after. Both leave
/// a single-CPU host alone.
class GeneratorCpu {
 public:
  GeneratorCpu() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0 || CPU_COUNT(&all_) < 2)
      return;
    for (int c = CPU_SETSIZE - 1; c >= 0; --c)
      if (CPU_ISSET(c, &all_)) {
        cpu_ = c;
        break;
      }
  }
  void spawn_elsewhere() const {
    if (cpu_ < 0) return;
    cpu_set_t rest = all_;
    CPU_CLR(cpu_, &rest);
    sched_setaffinity(0, sizeof rest, &rest);
  }
  void generator_cpu() const {
    if (cpu_ < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t all_;
  int cpu_ = -1;
};

// ---------------------------------------------------------------------------
// Spans → per-name counts, total and self time.

struct SpanAgg {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
using SpanTable = std::map<std::string, SpanAgg>;

/// drain() orders events by (thread, start, -duration), so every parent
/// precedes the children it encloses; a per-thread stack assigns each span
/// the time its direct children cover.
SpanTable aggregate(const std::vector<telemetry::TraceEvent>& events) {
  SpanTable out;
  struct Open {
    const telemetry::TraceEvent* e;
    std::int64_t child_ns;
  };
  std::vector<Open> stack;
  const auto close_top = [&] {
    const Open o = stack.back();
    stack.pop_back();
    SpanAgg& a = out[o.e->name];
    ++a.count;
    a.total_ms += static_cast<double>(o.e->dur_ns) * 1e-6;
    a.self_ms += static_cast<double>(o.e->dur_ns - o.child_ns) * 1e-6;
    if (!stack.empty()) stack.back().child_ns += o.e->dur_ns;
  };
  std::uint32_t tid = ~0U;
  for (const telemetry::TraceEvent& e : events) {
    if (e.tid != tid) {
      while (!stack.empty()) close_top();
      tid = e.tid;
    }
    while (!stack.empty() &&
           e.start_ns >= stack.back().e->start_ns + stack.back().e->dur_ns)
      close_top();
    stack.push_back({&e, 0});
  }
  while (!stack.empty()) close_top();
  return out;
}

double self_ms(const SpanTable& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.self_ms;
}

std::uint64_t span_count(const SpanTable& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0 : it->second.count;
}

// ---------------------------------------------------------------------------
// Shared measurements.

struct SetupTimes {
  double data_s = 0.0;
  double prepare_s = 0.0;
  double map_s = 0.0;  // per SeiNetwork constructor
  double adc_s = 0.0;
  double start_s = 0.0;
  double total_s = 0.0;
};

void report_setup(Report& rep, const std::vector<SetupTimes>& runs) {
  std::vector<double> total, data, prep, map, adc, start;
  for (const SetupTimes& s : runs) {
    total.push_back(s.total_s);
    data.push_back(s.data_s);
    prep.push_back(s.prepare_s);
    map.push_back(s.map_s);
    adc.push_back(s.adc_s);
    start.push_back(s.start_s);
  }
  rep.add("setup_s", median(total), "s");
  rep.add("data.load_s", median(data), "s");
  rep.add("workloads.prepare_s", median(prep), "s");
  rep.add("core.map_s", median(map), "s");
  rep.add("core.adc_fallback_s", median(adc), "s");
  rep.add("serve.start_s", median(start), "s");
}

/// Predicted label of every image of `d` (default pool, per-chunk context).
std::vector<int> predict_all(const core::SeiNetwork& net,
                             const data::Dataset& d) {
  std::vector<int> out(static_cast<std::size_t>(d.size()));
  exec::parallel_for_chunks(d.size(), 64, [&](int lo, int hi) {
    core::EvalContext ctx;
    for (int i = lo; i < hi; ++i)
      out[static_cast<std::size_t>(i)] = net.predict(image_of(d, i), ctx, i);
  });
  return out;
}

double error_pct(const std::vector<int>& pred, const data::Dataset& d) {
  long long wrong = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] != d.labels[i]) ++wrong;
  return 100.0 * static_cast<double>(wrong) / static_cast<double>(pred.size());
}

/// core.predict_ns and the per-stage split, all at one thread: predict on a
/// pre-bound context, then error_rate_from on cached stage inputs.
void measure_core(Report& rep, const core::SeiNetwork& net,
                  const data::Dataset& d) {
  const int wide = exec::default_threads();
  exec::set_default_threads(1);
  const int n = d.size();
  core::EvalContext ctx;
  net.prepare(ctx);
  std::vector<double> rounds;
  const Clock::time_point t0 = Clock::now();
  while (rounds.size() < 5 || seconds_between(t0, Clock::now()) < 1.0) {
    const double s = timed("bench.predict", [&] {
      for (int i = 0; i < n; ++i) (void)net.predict(image_of(d, i), ctx, i);
    });
    rounds.push_back(s * 1e9 / n);
  }
  const double predict_ns = median(rounds);

  const auto from_ns = [&](int stage) {
    const std::vector<quant::BitMap> in = net.cache_stage_inputs(d, stage);
    std::vector<double> r;
    for (int k = 0; k < 3; ++k)
      r.push_back(timed("bench.error_rate_from", [&] {
                    (void)net.error_rate_from(d, stage, in);
                  }) * 1e9 / n);
    return median(r);
  };
  const double from1 = from_ns(1);
  const double from2 = from_ns(2);
  exec::set_default_threads(wide);

  rep.add("core.predict_ns", predict_ns, "ns");
  rep.add("core.stage0_ns", predict_ns - from1, "ns");
  rep.add("core.stage1_ns", from1 - from2, "ns");
  rep.add("core.stage2_ns", from2, "ns");
}

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// peak_rss_mb is the high-water mark once set up and checked, before the
/// timed load: open-loop backlogs during host stalls would otherwise make it
/// a measure of the host. The end-of-run figure is printed as a note.
void add_rss(Report& rep, double ready_mb) {
  rep.add("peak_rss_mb", ready_mb, "MB");
  rep.note("max_rss_mb",
           std::to_string(max_rss_mb()) + " at the end of the run");
}

// ---------------------------------------------------------------------------
// batch-net1: repeated error_rate passes of network1 on the default pool.

struct BatchBed {
  data::DataBundle data;
  workloads::Artifacts art;
  telemetry::EnergyMeter meter;
  std::unique_ptr<core::SeiNetwork> net;
};

std::unique_ptr<BatchBed> setup_batch(SetupTimes& t) {
  auto bed = std::make_unique<BatchBed>();
  const Clock::time_point t0 = Clock::now();
  t.data_s = timed("bench.setup.data",
                   [&] { bed->data = workloads::load_default_data(); });
  t.prepare_s = timed("bench.setup.prepare", [&] {
    bed->art = workloads::prepare_workload("network1", bed->data);
  });
  t.map_s = timed("bench.setup.map", [&] {
    const core::HardwareConfig cfg;
    bed->net = std::make_unique<core::SeiNetwork>(bed->art.qnet, cfg);
    bed->meter = arch::make_energy_meter(bed->art.qnet, cfg,
                                         core::StructureKind::kSei);
    bed->net->set_meter(&bed->meter);
  });
  t.total_s = seconds_between(t0, Clock::now());
  return bed;
}

/// Registry totals of the batch energy counters (fJ, images).
std::pair<std::uint64_t, std::uint64_t> batch_energy() {
  std::uint64_t fj = 0, images = 0;
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::global().snapshot();
  for (const telemetry::CounterSample& c : snap.counters) {
    if (c.name.rfind("sei_energy_fj_total{path=\"sei_batch\"", 0) == 0)
      fj += c.value;
    else if (c.name == "sei_images_total{path=\"sei_batch\"}")
      images += c.value;
  }
  return {fj, images};
}

/// One timed phase of error_rate passes: images/s, every pass latency and
/// the pool's busy share. Every pass must reproduce `expect_err`.
struct BatchPhase {
  double img_per_s = 0.0;
  std::vector<double> pass_ms;
  double busy_pct = 0.0;
};

BatchPhase batch_phase(Report& rep, const BatchBed& bed,
                       const data::Dataset& d, double seconds,
                       double expect_err) {
  BatchPhase ph;
  exec::ThreadPool& pool = exec::default_pool();
  pool.reset_stats();
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < seconds) {
    double err = 0.0;
    ph.pass_ms.push_back(
        timed("bench.error_rate", [&] { err = bed.net->error_rate(d); }) * 1e3);
    ++rep.attempted;
    if (err != expect_err)
      rep.mismatch("error_rate pass gave " + std::to_string(err) +
                   "%, expected " + std::to_string(expect_err) + "%");
    elapsed = seconds_between(t0, Clock::now());
  }
  // Images per second of the median pass: a host stall slows some passes,
  // not the figure.
  ph.img_per_s = d.size() / (median(ph.pass_ms) * 1e-3);
  ph.busy_pct = 100.0 * static_cast<double>(pool.stats().busy_ns_total()) /
                (static_cast<double>(pool.thread_count()) * elapsed * 1e9);
  return ph;
}

void add_latency(Report& rep, double p50, double p99,
                 const std::vector<double>& samples, const std::string& what) {
  rep.add("p50_ms", p50, "ms");
  rep.add("p99_ms", p99, "ms");
  const int p = trusted_percentile(samples.size());
  char line[240];
  std::snprintf(line, sizeof line,
                "%s: %zu samples; over all of them p99 = %.4f ms and p%d = "
                "%.4f ms (highest percentile with >= 10 samples beyond it)",
                what.c_str(), samples.size(), quantile(samples, 0.99), p,
                quantile(samples, p / 100.0));
  rep.note("latency", line);
}

void run_batch(Report& rep, std::uint64_t seed, double seconds, bool trace) {
  std::vector<SetupTimes> setups(kSetups);
  const std::unique_ptr<BatchBed> bed = setup_batch(setups[0]);
  keep_spans();
  telemetry::Tracer::set_enabled(false);

  // The seed fixes the order of the test set; results do not depend on it.
  const data::Dataset& test = bed->data.test;
  std::vector<int> order(static_cast<std::size_t>(test.size()));
  for (int i = 0; i < test.size(); ++i) order[static_cast<std::size_t>(i)] = i;
  Rng rng = Rng::fork(seed, 0);
  rng.shuffle(order);
  data::Dataset d;
  d.images = nn::Tensor(test.images.shape());
  const std::size_t per =
      test.images.numel() / static_cast<std::size_t>(test.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::span<const float> src = image_of(test, order[i]);
    std::copy(src.begin(), src.end(), d.images.data() + i * per);
    d.labels.push_back(test.labels[static_cast<std::size_t>(order[i])]);
  }

  // Correctness gate: 1 thread, N threads (the host's effective
  // concurrency) and the scalar engine agree on every prediction and on the
  // error rate.
  exec::set_default_threads(1);
  std::vector<int> pred1(static_cast<std::size_t>(d.size()));
  {
    core::EvalContext ctx;
    for (int i = 0; i < d.size(); ++i)
      pred1[static_cast<std::size_t>(i)] =
          bed->net->predict(image_of(d, i), ctx, i);
  }
  const double err1 = bed->net->error_rate(d);
  exec::set_default_threads(exec::ThreadPool::effective_concurrency());
  const std::vector<int> predn = predict_all(*bed->net, d);
  const auto [fj0, im0] = batch_energy();
  const double errn = bed->net->error_rate(d);
  const auto [fj1, im1] = batch_energy();
  bed->net->set_packed_eval(false);
  const std::vector<int> preds = predict_all(*bed->net, d);
  const double errs = bed->net->error_rate(d);
  bed->net->set_packed_eval(true);
  rep.attempted += 3;
  if (pred1 != predn)
    rep.mismatch("predictions differ between 1 and N threads");
  if (pred1 != preds)
    rep.mismatch("predictions differ between packed and scalar");
  if (err1 != errn || err1 != errs ||
      std::fabs(err1 - error_pct(pred1, d)) > 1e-9)
    rep.mismatch("error rates disagree: 1t " + std::to_string(err1) +
                 " Nt " + std::to_string(errn) + " scalar " +
                 std::to_string(errs));
  if (im1 == im0) rep.mismatch("the energy meter charged no images");
  exec::set_default_threads(kThreads);
  const double ready_mb = max_rss_mb();
  for (int r = 1; r < kSetups; ++r)
    (void)setup_batch(setups[static_cast<std::size_t>(r)]);
  report_setup(rep, setups);

  // A traced run measures twice (untraced, traced) in the same time.
  const double phase_s = trace ? seconds / 2 : seconds;
  const BatchPhase ph = batch_phase(rep, *bed, d, phase_s, err1);
  rep.add("answers_per_s", ph.img_per_s, "1/s");
  add_latency(rep, median(ph.pass_ms), quantile(ph.pass_ms, 0.99),
              ph.pass_ms, "error_rate pass over the test set");
  rep.add("sim.error_pct", sim_digits(err1), "%");
  rep.add("sim.uj_per_image",
          im1 > im0 ? sim_digits(static_cast<double>(fj1 - fj0) * 1e-9 /
                                 static_cast<double>(im1 - im0))
                    : 0.0,
          "uJ");

  if (trace) {
    telemetry::Tracer::set_enabled(true);
    const BatchPhase traced = batch_phase(rep, *bed, d, phase_s, err1);
    measure_core(rep, *bed->net, d);
    telemetry::Tracer::set_enabled(false);
    keep_spans();
    rep.add("trace.overhead_pct",
            100.0 * (ph.img_per_s / traced.img_per_s - 1.0), "%");
    // The pool at the host's full concurrency, untraced.
    const int wide = exec::ThreadPool::effective_concurrency();
    exec::set_default_threads(wide);
    const BatchPhase nt = batch_phase(rep, *bed, d, phase_s / 2, err1);
    exec::set_default_threads(kThreads);
    rep.add("exec.busy_pct", nt.busy_pct, "%");
    rep.add("exec.parallel_eff",
            nt.img_per_s * metric(rep, "core.predict_ns") / 1e9 / wide,
            "ratio");
    rep.note("exec.wide", std::to_string(nt.img_per_s) + " img/s at " +
                              std::to_string(wide) + " threads");
  }
  add_rss(rep, ready_mb);
}

// ---------------------------------------------------------------------------
// Serving workloads: a FleetRuntime over three shards of one network.

struct FleetBed {
  data::DataBundle data;
  workloads::Artifacts art;
  reliability::RepairReport repair;
  std::vector<std::unique_ptr<core::SeiNetwork>> shards;
  std::unique_ptr<core::AdcNetwork> fallback;
  std::vector<std::vector<int>> expected;      // [shard][test image]
  std::unique_ptr<serve::FleetRuntime> fleet;  // destroyed first
};

serve::FleetConfig fleet_config(bool closed, const std::string& ckpt_dir) {
  serve::FleetConfig fc;
  fc.tenants = serve::parse_tenant_specs(kTenants);
  for (serve::TenantConfig& t : fc.tenants)
    t.queue_capacity = closed ? kClosedQueue : kOpenQueue;
  fc.batcher.max_batch = kMaxBatch;
  fc.sentinel.probe_every = kProbeEvery;
  fc.calibration.max_images = 200;
  if (closed) {
    fc.checkpoint_every = kCheckpointEvery;
    fc.checkpoint_dir = ckpt_dir;
  }
  return fc;
}

void reset_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// One full set-up: data, workload, shard mapping, ADC fallback, fleet
/// start. The reference labels of every shard are computed between the
/// timed steps (not part of set-up) when `with_expected` is set.
std::unique_ptr<FleetBed> setup_fleet(const std::string& network, bool closed,
                                      const std::string& ckpt_dir,
                                      bool with_expected, SetupTimes& t) {
  reset_dir(ckpt_dir);  // cold start: never resume a previous set-up
  auto bed = std::make_unique<FleetBed>();
  t.data_s = timed("bench.setup.data",
                   [&] { bed->data = workloads::load_default_data(); });
  t.prepare_s = timed("bench.setup.prepare", [&] {
    bed->art = workloads::prepare_workload(network, bed->data);
  });
  double map_total = 0.0;
  for (int k = 0; k < kShards; ++k) {
    map_total += timed("bench.setup.map", [&] {
      core::HardwareConfig hw;
      hw.seed += static_cast<std::uint64_t>(k) * 1000003ULL;
      hw.spare_row_fraction = 0.1;  // spares for the tier-1 repair remap
      bed->shards.push_back(std::make_unique<core::SeiNetwork>(
          bed->art.qnet, hw,
          reliability::make_repair_hook(reliability::RepairConfig{},
                                        &bed->repair)));
    });
  }
  t.map_s = map_total / kShards;
  t.adc_s = timed("bench.setup.adc", [&] {
    bed->fallback = std::make_unique<core::AdcNetwork>(
        bed->art.qnet, core::AdcConfig{}, bed->data.train);
  });
  if (with_expected)
    for (const auto& s : bed->shards)
      bed->expected.push_back(predict_all(*s, bed->data.test));
  static const GeneratorCpu gen_cpu;
  gen_cpu.spawn_elsewhere();
  t.start_s = timed("bench.setup.start", [&] {
    std::vector<core::SeiNetwork*> ptrs;
    for (const auto& s : bed->shards) ptrs.push_back(s.get());
    bed->fleet = std::make_unique<serve::FleetRuntime>(
        ptrs, bed->art.qnet, bed->data.test, bed->data.train,
        fleet_config(closed, ckpt_dir), bed->fallback.get());
    bed->fleet->start();
  });
  gen_cpu.generator_cpu();
  t.total_s = t.data_s + t.prepare_s + map_total + t.adc_s + t.start_s;
  return bed;
}

/// Client-side record of one request.
struct Sent {
  std::future<serve::FleetResponse> fut;
  Clock::time_point due;
  Clock::time_point sent;
  int image = 0;
  int client = -1;
  int seq = 0;  // send order within the phase
};

/// Outcome tallies of one serving phase.
struct ServePhase {
  explicit ServePhase(int window_requests = kOpenWindow)
      : window(window_requests) {}
  Clock::time_point t0 = Clock::now();
  int window;                      // requests per window, in send order
  std::vector<double> latency_ms;  // from due (open) / sent (closed)
  std::vector<std::vector<double>> windows;
  std::vector<long long> window_answers;  // verified answers per window
  // First and last send of each window.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> window_span;
  std::vector<double> submit_us;
  std::vector<double> late_ms;     // generator lateness (open loop)
  long long answers = 0;           // verified labels
  double wall_s = 0.0;
  std::vector<std::pair<int, int>> degraded;  // (image, label) to verify
};

/// Median over the phase's windows (those with >= 100 samples) of each
/// window's q-quantile.
double windowed(const ServePhase& ph, double q) {
  std::vector<double> per;
  for (const std::vector<double>& w : ph.windows)
    if (w.size() >= 100) per.push_back(quantile(w, q));
  return per.empty() ? quantile(ph.latency_ms, q) : median(per);
}

/// Closed loop: answers per second of sending, the median over the full
/// windows. Open loop: answers over the phase's wall time
/// (arrivals are scheduled, so this tracks the offered rate unless the
/// fleet falls behind).
double answer_rate(const ServePhase& ph, bool closed) {
  if (!closed) return static_cast<double>(ph.answers) / ph.wall_s;
  std::vector<double> per;
  for (std::size_t w = 0; w < ph.windows.size(); ++w) {
    const auto [first, last] = ph.window_span[w];
    if (static_cast<int>(ph.windows[w].size()) == ph.window && last > first)
      per.push_back(static_cast<double>(ph.window_answers[w]) /
                    seconds_between(first, last));
  }
  return per.empty() ? static_cast<double>(ph.answers) / ph.wall_s
                     : median(per);
}

class Verifier {
 public:
  Verifier(Report& rep, const FleetBed& bed) : rep_(rep), bed_(bed) {}

  /// Checks one response and records its latency.
  void settle(Sent& s, ServePhase& ph) {
    const serve::FleetResponse r = s.fut.get();
    ++rep_.attempted;
    const double ms = ms_between(s.due, s.sent) + r.latency_ms;
    ph.latency_ms.push_back(ms);
    const std::size_t w = static_cast<std::size_t>(s.seq / ph.window);
    if (ph.windows.size() <= w) {
      ph.windows.resize(w + 1);
      ph.window_answers.resize(w + 1);
      ph.window_span.resize(w + 1, {s.sent, s.sent});
    }
    ph.windows[w].push_back(ms);
    auto& [first, last] = ph.window_span[w];
    first = std::min(first, s.sent);
    last = std::max(last, s.sent);
    switch (r.status) {
      case serve::FleetResponseStatus::kOk: {
        const int want = bed_.expected.at(static_cast<std::size_t>(r.shard))
                             .at(static_cast<std::size_t>(s.image));
        if (r.label == want) {
          ++ph.answers;
          ++ph.window_answers[w];
        } else {
          rep_.mismatch("image " + std::to_string(s.image) + " on shard " +
                        std::to_string(r.shard) + ": served " +
                        std::to_string(r.label) + ", predict gives " +
                        std::to_string(want));
        }
        break;
      }
      case serve::FleetResponseStatus::kDegraded:
        ph.degraded.emplace_back(s.image, r.label);
        ++ph.answers;
        ++ph.window_answers[w];
        break;
      case serve::FleetResponseStatus::kRejected:
        rep_.fail(std::string("request rejected: ") + to_string(r.error));
        break;
    }
  }

  /// kDegraded answers must equal the ADC fallback's own prediction.
  void check_degraded(ServePhase& ph) {
    core::EvalContext ctx;
    for (const auto& [image, label] : ph.degraded) {
      const int want =
          bed_.fallback->predict(image_of(bed_.data.test, image), ctx);
      if (label != want) {
        rep_.mismatch("degraded answer " + std::to_string(label) +
                      " for image " + std::to_string(image) +
                      ", fallback predicts " + std::to_string(want));
        --ph.answers;
      }
    }
  }

 private:
  Report& rep_;
  const FleetBed& bed_;
};

int pick_tenant(Rng& rng) {
  // Offered load split like the tenant weights (A:2, B:1).
  return rng.uniform() < 2.0 / 3.0 ? 0 : 1;
}

/// One step of the open-loop ladder.
struct Step {
  double rate = 0.0;
  double seconds = 0.0;
  ServePhase ph;
  long long failed = 0;

  double achieved() const { return static_cast<double>(ph.answers) / seconds; }
  /// p99 of the last full window: a growing backlog shows there first.
  double last_p99() const {
    for (auto w = ph.windows.rbegin(); w != ph.windows.rend(); ++w)
      if (w->size() >= 100) return quantile(*w, 0.99);
    return quantile(ph.latency_ms, 0.99);
  }
  bool in_slo() const {
    return failed == 0 && windowed(ph, 0.99) <= kSloP99Ms &&
           last_p99() <= kSloP99Ms;
  }
};

Step open_step(Report& rep, Verifier& v, FleetBed& bed, double rate,
               double seconds, Rng& rng) {
  const int nimg = bed.data.test.size();
  Step st;
  st.rate = rate;
  st.seconds = seconds;
  ServePhase& ph = st.ph;
  std::deque<Sent> inflight;
  const long long failed0 = rep.failed;
  const auto horizon = ph.t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
  Clock::time_point due = ph.t0;
  for (;;) {
    due += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - rng.uniform()) / rate));
    if (due >= horizon) break;
    const int tenant = pick_tenant(rng);
    const int image =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(nimg)));
    // A sleep overshoots by tens of microseconds (timer slack, vCPU
    // wake-up); the last stretch is spun so each request leaves on time.
    std::this_thread::sleep_until(due - kSpinAhead);
    while (Clock::now() < due) {
    }
    while (!inflight.empty() &&
           inflight.front().fut.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      v.settle(inflight.front(), ph);
      inflight.pop_front();
    }
    Sent s;
    s.due = due;
    s.image = image;
    s.seq = static_cast<int>(ph.submit_us.size());
    s.sent = Clock::now();
    s.fut = bed.fleet->submit(tenant, image_of(bed.data.test, image));
    ph.submit_us.push_back(seconds_between(s.sent, Clock::now()) * 1e6);
    ph.late_ms.push_back(ms_between(s.due, s.sent));
    inflight.push_back(std::move(s));
  }
  while (!inflight.empty()) {
    v.settle(inflight.front(), ph);
    inflight.pop_front();
  }
  ph.wall_s = seconds_between(ph.t0, Clock::now());
  v.check_degraded(ph);
  st.failed = rep.failed - failed0;
  return st;
}

/// The open-loop ladder: every rate in turn, each for seconds / steps.
std::vector<Step> open_ladder(Report& rep, Verifier& v, FleetBed& bed,
                              std::uint64_t seed, double seconds, int pass) {
  std::vector<Step> steps;
  const int nsteps = static_cast<int>(std::size(kLadder));
  for (int i = 0; i < nsteps; ++i) {
    Rng rng = Rng::fork(seed, static_cast<std::uint64_t>(pass * 100 + i));
    steps.push_back(open_step(rep, v, bed, kLadder[i], seconds / nsteps, rng));
  }
  return steps;
}

/// All steps' samples and totals in one phase.
ServePhase merged(const std::vector<Step>& steps) {
  ServePhase all;
  for (const Step& st : steps) {
    const ServePhase& ph = st.ph;
    all.latency_ms.insert(all.latency_ms.end(), ph.latency_ms.begin(),
                          ph.latency_ms.end());
    all.submit_us.insert(all.submit_us.end(), ph.submit_us.begin(),
                         ph.submit_us.end());
    all.late_ms.insert(all.late_ms.end(), ph.late_ms.begin(), ph.late_ms.end());
    all.answers += ph.answers;
    all.wall_s += ph.wall_s;
  }
  return all;
}

/// Closed loop: kClients clients (2:1 over the tenants), each waiting for
/// its reply before sending the next request. The generator settles
/// replies in send order; the fleet serves the tenants in proportion to
/// their clients, so a reply that waits behind an older one waits briefly
/// while the fleet keeps dozens of requests queued.
ServePhase closed_loop(Verifier& v, FleetBed& bed, std::uint64_t seed,
                       double seconds, int pass) {
  const int nimg = bed.data.test.size();
  Rng rng = Rng::fork(seed, static_cast<std::uint64_t>(1000 + pass));
  ServePhase ph(kCheckpointEvery);
  std::deque<Sent> inflight;
  const auto send = [&](int client) {
    const int tenant = client < kClients * 2 / 3 ? 0 : 1;
    Sent s;
    s.client = client;
    s.seq = static_cast<int>(ph.submit_us.size());
    s.image = static_cast<int>(rng.below(static_cast<std::uint64_t>(nimg)));
    s.sent = s.due = Clock::now();
    s.fut = bed.fleet->submit(tenant, image_of(bed.data.test, s.image));
    ph.submit_us.push_back(seconds_between(s.sent, Clock::now()) * 1e6);
    inflight.push_back(std::move(s));
  };
  for (int c = 0; c < kClients; ++c) send(c);
  while (!inflight.empty()) {
    const bool open = seconds_between(ph.t0, Clock::now()) < seconds;
    v.settle(inflight.front(), ph);
    const int client = inflight.front().client;
    inflight.pop_front();
    if (open) send(client);
  }
  ph.wall_s = seconds_between(ph.t0, Clock::now());
  v.check_degraded(ph);
  return ph;
}

/// Fleet counters over one phase (difference of two stats() snapshots).
struct FleetDelta {
  double dispatched = 0, batches = 0, coalesced = 0, checkpoints = 0,
         probes = 0, trips = 0;
};

std::uint64_t probes_total() {
  for (const auto& c : telemetry::MetricsRegistry::global().snapshot().counters)
    if (c.name == "fleet_probes_total") return c.value;
  return 0;
}

FleetDelta fleet_counts(const serve::FleetRuntime& f) {
  const serve::FleetStats st = f.stats();
  FleetDelta d;
  d.dispatched = static_cast<double>(st.total_dispatched);
  d.batches = static_cast<double>(st.batcher.batches);
  d.coalesced = static_cast<double>(st.batcher.coalesced);
  d.checkpoints = static_cast<double>(st.checkpoints);
  d.probes = static_cast<double>(probes_total());
  for (const serve::ShardStats& s : st.shards) d.trips += s.trips;
  return d;
}

FleetDelta operator-(const FleetDelta& a, const FleetDelta& b) {
  return {a.dispatched - b.dispatched, a.batches - b.batches,
          a.coalesced - b.coalesced,   a.checkpoints - b.checkpoints,
          a.probes - b.probes,         a.trips - b.trips};
}

/// One measured serving phase: the closed loop, or the whole ladder.
struct Measured {
  ServePhase all;           // every request of the phase
  std::vector<Step> steps;  // open loop only
  double p50 = 0.0;         // headline: closed loop / reference step
  double p99 = 0.0;
};

Measured serve_phase(Report& rep, Verifier& v, FleetBed& bed, bool closed,
                     std::uint64_t seed, double seconds, int pass) {
  Measured m;
  if (closed) {
    m.all = closed_loop(v, bed, seed, seconds, pass);
    m.p50 = windowed(m.all, 0.50);
    m.p99 = windowed(m.all, 0.99);
  } else {
    m.steps = open_ladder(rep, v, bed, seed, seconds, pass);
    m.all = merged(m.steps);
    m.p50 = windowed(m.steps[kRefStep].ph, 0.50);
    m.p99 = windowed(m.steps[kRefStep].ph, 0.99);
  }
  return m;
}

void run_serve(Report& rep, bool closed, std::uint64_t seed, double seconds,
               bool trace, const std::string& work_dir) {
  const std::string network = closed ? "network1" : "network2";
  const std::string ckpt_dir = work_dir + "/checkpoints";
  std::vector<SetupTimes> setups(kSetups);
  const std::unique_ptr<FleetBed> bed =
      setup_fleet(network, closed, ckpt_dir, true, setups[0]);
  keep_spans();
  telemetry::Tracer::set_enabled(false);

  // Simulated test error of the shards, from the reference labels.
  double err_sum = 0.0;
  for (const auto& e : bed->expected) err_sum += error_pct(e, bed->data.test);
  rep.add("sim.error_pct", sim_digits(err_sum / kShards), "%");

  const double ready_mb = max_rss_mb();
  for (int r = 1; r < kSetups; ++r) {
    const std::unique_ptr<FleetBed> again =
        setup_fleet(network, closed, ckpt_dir + ".setup", false,
                    setups[static_cast<std::size_t>(r)]);
    again->fleet->stop();
  }
  fs::remove_all(ckpt_dir + ".setup");
  report_setup(rep, setups);

  // A traced run measures twice (untraced, traced) in the same time.
  const double phase_s = trace ? seconds / 2 : seconds;
  Verifier v(rep, *bed);
  exec::ThreadPool& pool = exec::default_pool();
  pool.reset_stats();
  const FleetDelta c0 = fleet_counts(*bed->fleet);
  const Measured m = serve_phase(rep, v, *bed, closed, seed, phase_s, 0);
  const double busy_pct =
      100.0 * static_cast<double>(pool.stats().busy_ns_total()) /
      (static_cast<double>(pool.thread_count()) * m.all.wall_s * 1e9);
  const FleetDelta d = fleet_counts(*bed->fleet) - c0;

  const double answers_per_s = answer_rate(m.all, closed);
  rep.add("answers_per_s", answers_per_s, "1/s");
  add_latency(rep, m.p50, m.p99,
              closed ? m.all.latency_ms : m.steps[kRefStep].ph.latency_ms,
              closed ? "closed loop, from send"
                     : "open loop at " +
                           std::to_string(static_cast<int>(kLadder[kRefStep])) +
                           "/s, from due time");
  rep.add("exec.busy_pct", busy_pct, "%");
  rep.add("serve.submit_us_p50", quantile(m.all.submit_us, 0.50), "us");
  rep.add("serve.submit_us_p99", quantile(m.all.submit_us, 0.99), "us");
  rep.add("gen.late_p99_ms", quantile(m.all.late_ms, 0.99), "ms");

  double max_rate = 0.0, max_achieved = 0.0;
  for (const Step& s : m.steps) {
    if (s.in_slo()) max_rate = std::max(max_rate, s.rate);
    max_achieved = std::max(max_achieved, s.achieved());
    char line[200];
    std::snprintf(line, sizeof line,
                  "offered %.0f/s achieved %.1f/s p50 %.3f ms p99 %.3f ms "
                  "last-window p99 %.3f ms failed %lld%s",
                  s.rate, s.achieved(), windowed(s.ph, 0.5),
                  windowed(s.ph, 0.99), s.last_p99(), s.failed,
                  s.in_slo() ? " (in SLO)" : "");
    rep.note("ladder", line);
  }
  if (!closed) rep.add("serve.max_rate_in_slo", max_rate, "1/s");
  // Fleet counters over the untraced phase.
  rep.add("serve.batch_mean", d.batches > 0 ? d.coalesced / d.batches : 0.0,
          "count");
  rep.add("serve.probes", d.probes, "count");
  rep.add("serve.breaker_trips", d.trips, "count");
  rep.add("serve.checkpoints", d.checkpoints, "count");

  const auto per = [](double total, double n) {
    return n > 0 ? total / n : 0.0;
  };
  if (trace) {
    telemetry::Tracer::set_enabled(true);
    const FleetDelta t0 = fleet_counts(*bed->fleet);
    const Measured tm = serve_phase(rep, v, *bed, closed, seed, phase_s, 1);
    const FleetDelta td = fleet_counts(*bed->fleet) - t0;
    telemetry::Tracer::set_enabled(false);
    const SpanTable spans = aggregate(keep_spans());
    const auto count = [&](const char* n) {
      return static_cast<double>(span_count(spans, n));
    };
    rep.add("serve.batch_ms", per(self_ms(spans, "fleet.batch"), td.dispatched),
            "ms");
    rep.add("serve.probe_ms",
            per(self_ms(spans, "fleet.probe"), count("fleet.probe")), "ms");
    rep.add("serve.checkpoint_ms",
            per(self_ms(spans, "fleet.checkpoint"), count("fleet.checkpoint")),
            "ms");
    // Closed loop: throughput lost to tracing; open loop: median latency
    // added by it (the offered rate is fixed).
    rep.add("trace.overhead_pct",
            closed ? 100.0 * (answers_per_s /
                                  answer_rate(tm.all, closed) -
                              1.0)
                   : 100.0 * (tm.p50 / m.p50 - 1.0),
            "%");
  }

  bed->fleet->stop();
  const serve::FleetStats st = bed->fleet->stats();
  double joules = 0.0, answered = 0.0;
  for (double j : st.tenant_metered_j) joules += j;
  for (const serve::TenantCounters& t : st.tenants)
    answered += static_cast<double>(t.ok + t.degraded);
  rep.add("sim.uj_per_image",
          answered > 0 ? sim_digits(joules * 1e6 / answered) : 0.0, "uJ");
  double recovery_ms = 0.0, recoveries = 0.0;
  for (int k = 0; k < kShards; ++k)
    for (const serve::RecoveryRecord& r : bed->fleet->shard_recoveries(k)) {
      recovery_ms += r.duration_ms;
      ++recoveries;
    }
  rep.add("serve.recovery_ms", per(recovery_ms, recoveries), "ms");
  reset_dir(ckpt_dir);

  if (trace) {
    telemetry::Tracer::set_enabled(true);
    measure_core(rep, *bed->shards[0], bed->data.test);
    telemetry::Tracer::set_enabled(false);
    keep_spans();
    const double predict_ns = metric(rep, "core.predict_ns");
    const double threads = static_cast<double>(exec::default_threads());
    // Open loop: the fleet's best achieved rate stands for what it serves.
    const double served = closed ? answers_per_s : max_achieved;
    rep.add("exec.parallel_eff", served * predict_ns / 1e9 / threads, "ratio");
    rep.add("serve.gap_x", threads * 1e9 / predict_ns / served, "x");
  }
  add_rss(rep, ready_mb);
}

// ---------------------------------------------------------------------------

/// Every per-layer metric a workload does not touch reads 0, so each
/// workload reports the same set of names.
void fill_untouched(Report& rep, bool trace) {
  static const std::pair<const char*, const char*> kAll[] = {
      {"core.adc_fallback_s", "s"}, {"serve.start_s", "s"},
      {"serve.submit_us_p50", "us"}, {"serve.submit_us_p99", "us"},
      {"serve.batch_mean", "count"}, {"serve.probes", "count"},
      {"serve.breaker_trips", "count"}, {"serve.checkpoints", "count"},
      {"serve.max_rate_in_slo", "1/s"}, {"gen.late_p99_ms", "ms"}};
  static const std::pair<const char*, const char*> kTraced[] = {
      {"serve.batch_ms", "ms"},     {"serve.probe_ms", "ms"},
      {"serve.recovery_ms", "ms"},  {"serve.checkpoint_ms", "ms"},
      {"serve.gap_x", "x"},         {"exec.parallel_eff", "ratio"}};
  const auto have = [&](const char* n) {
    for (const Report::Metric& m : rep.metrics)
      if (m.name == n) return true;
    return false;
  };
  for (const auto& [n, u] : kAll)
    if (!have(n)) rep.add(n, 0.0, u);
  if (trace)
    for (const auto& [n, u] : kTraced)
      if (!have(n)) rep.add(n, 0.0, u);
}

void write_report(const Report& rep, const std::string& path,
                  const std::string& workload, std::uint64_t seed,
                  double seconds, bool trace) {
  std::printf("\n%s (seed %llu, %.0f s, trace %d)\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
  for (const auto& [k, text] : rep.notes)
    std::printf("  %-28s %s\n", k.c_str(), text.c_str());
  for (const Report::Metric& m : rep.metrics)
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-28s %lld attempted, %lld failed, %lld wrong\n",
              "operations", rep.attempted, rep.failed, rep.wrong);

  JsonWriter j(path);
  j.begin_object();
  j.kv("workload", workload);
  j.kv("seed", static_cast<long long>(seed));
  j.kv("seconds", seconds);
  j.kv("trace", trace);
  j.kv("correct", rep.wrong == 0);
  j.kv("attempted", rep.attempted);
  j.kv("failed", rep.failed);
  j.key("notes");
  j.begin_array();
  for (const auto& [k, text] : rep.notes) j.value(k + ": " + text);
  j.end_array();
  j.key("metrics");
  j.begin_object();
  for (const Report::Metric& m : rep.metrics) {
    j.key(m.name);
    j.begin_object();
    j.kv("value", m.value);
    j.kv("unit", m.unit);
    j.end_object();
  }
  j.end_object();
  j.end_object();
  j.commit();
}

void prepare() {
  const data::DataBundle data = workloads::load_default_data(true);
  for (const char* name : {"network1", "network2"}) {
    workloads::PipelineOptions opts;
    opts.verbose = true;
    (void)workloads::prepare_workload(name, data, opts);
    std::printf("prepared %s in %s\n", name, workloads::cache_dir().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const char* cache = std::getenv("SEI_CACHE_DIR");
  SEI_CHECK_MSG(cache != nullptr && *cache,
                "SEI_CACHE_DIR must name the benchmark's own model cache");
  SEI_CHECK_MSG(argc >= 2, "usage: perfbench_driver prepare|run [flags]");
  const std::string mode = argv[1];
  if (mode == "prepare") {
    prepare();
    return 0;
  }
  SEI_CHECK_MSG(mode == "run", "unknown mode: " << mode);
  Cli cli(argc - 1, argv + 1);
  const std::string workload = cli.get("workload", "", "workload name");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1, "input seed"));
  const double seconds = cli.get_double("seconds", 10.0, "measured seconds");
  const bool trace = cli.get_int("trace", 0, "1 = traced run") != 0;
  const std::string work_dir = cli.get("work-dir", "", "scratch directory");
  const std::string out = cli.get("out", "", "report path (.json)");
  if (!cli.validate("perfbench driver")) return 0;
  SEI_CHECK_MSG(seconds > 0.0, "seconds must be positive");
  SEI_CHECK_MSG(!work_dir.empty() && !out.empty(),
                "--work-dir and --out are required");

  Report rep;
  rep.note("workload", workload);
  exec::set_default_threads(kThreads);
  host_block(rep);
  telemetry::Tracer::set_enabled(trace);
  if (workload == "batch-net1") {
    run_batch(rep, seed, seconds, trace);
  } else if (workload == "serve-net2-open") {
    run_serve(rep, false, seed, seconds, trace, work_dir);
  } else if (workload == "serve-net1-ckpt") {
    run_serve(rep, true, seed, seconds, trace, work_dir);
  } else {
    SEI_CHECK_MSG(false, "unknown workload: " << workload);
  }
  fill_untouched(rep, trace);
  if (trace) {
    const std::string path = work_dir + "/" + workload + ".trace.json";
    telemetry::write_chrome_trace(path, all_spans());
    rep.note("trace", path + " (open in Perfetto or chrome://tracing)");
    for (const auto& [name, a] : aggregate(all_spans())) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "%8llu spans  total %10.3f ms  self %10.3f ms",
                    static_cast<unsigned long long>(a.count), a.total_ms,
                    a.self_ms);
      rep.note("span " + name, line);
    }
  }
  write_report(rep, out, workload, seed, seconds, trace);
  return rep.wrong == 0 ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
