/**
 * @file
 * wasp-perfbench: the repository benchmark driver. One process runs one
 * named workload for a fixed time and prints human-readable results
 * followed by one JSON line (see perfbench/README.md):
 *
 *   paper-matrix     runMatrix over the 20 Table II apps x the four
 *                    Fig 14 configs on the 4-SM machine, 2 workers
 *   fullsize-matrix  the 20 apps x {BASELINE, WASP_GPU} on the 108-SM
 *                    full-size machine, 1 worker
 *   search-compile   no simulation: every suite kernel plus a seeded
 *                    draw of generated kernels, compiled under every
 *                    paper config with the heuristic and the search
 *                    partitioner, scored and round-tripped through the
 *                    assembler
 *
 * --trace 0 times untraced passes (end-to-end metrics). --trace 1 runs a
 * separate traced pass that wraps every public layer call in the
 * benchmark's own spans (per-layer metrics). Any correctness failure
 * makes the process exit 1.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry.hh"
#include "common/thread_pool.hh"
#include "compiler/waspc.hh"
#include "harness/configs.hh"
#include "harness/runner.hh"
#include "isa/program.hh"
#include "sim/gpu.hh"
#include "workloads/benchmarks.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace wasp;

// Fig 14 geomean speedups over BASELINE reported by the paper
// (EXPERIMENTS.md, "Figure 14").
constexpr double kPaperWaspSpeedup = 1.47;
constexpr double kPaperCompilerSpeedup = 1.23;

// End-to-end metrics a workload does not measure are reported as this
// fixed value so every run carries every key (README.md, "Metrics").
constexpr double kNotMeasured = 1.0;

// Environment knobs that change the program under test.
constexpr const char *kEnvKnobs[] = {
    "WASP_TELEMETRY", "WASP_LEDGER", "WASP_REFERENCE_CLOCK",
    "WASP_SM_THREADS", "WASP_PROGRESS_FORCE",
};

/** CLOCK_MONOTONIC in ns: the clock run.py stamps --t0-ns with. */
int64_t
monoNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double
secondsBetween(int64_t a_ns, int64_t b_ns)
{
    return static_cast<double>(b_ns - a_ns) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** FNV-1a over raw bytes: the results fingerprint. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 0x100000001b3ull;
        }
    }
    void f64(double v) { bytes(&v, sizeof v); }
    void str(const std::string &s) { bytes(s.data(), s.size()); }
};

/** Uniform draws that do not depend on the standard library's
 * distribution implementations. */
struct Rng
{
    std::mt19937_64 gen;
    explicit Rng(uint64_t seed) : gen(seed) {}
    int
    pick(int lo, int hi)
    {
        return lo + static_cast<int>(gen() %
                                     static_cast<uint64_t>(hi - lo + 1));
    }
    template <class T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[gen() % i]);
    }
};

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool subset = false;
    bool corruptExpected = false;
    bool setupOnly = false;
    int64_t t0Ns = -1;
    std::string traceFile;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "wasp-perfbench: %s\n"
                 "usage: wasp-perfbench --workload "
                 "paper-matrix|fullsize-matrix|search-compile\n"
                 "         [--seed N] [--seconds S] [--trace 0|1] "
                 "[--subset] [--corrupt-expected]\n"
                 "         [--setup-only] [--t0-ns NS] "
                 "[--trace-file PATH]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string f = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + f).c_str());
            return argv[++i];
        };
        if (f == "--workload")
            a.workload = value();
        else if (f == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (f == "--seconds")
            a.seconds = std::atof(value().c_str());
        else if (f == "--trace")
            a.trace = value() != "0";
        else if (f == "--subset")
            a.subset = true;
        else if (f == "--corrupt-expected")
            a.corruptExpected = true;
        else if (f == "--setup-only")
            a.setupOnly = true;
        else if (f == "--t0-ns")
            a.t0Ns = std::strtoll(value().c_str(), nullptr, 10);
        else if (f == "--trace-file")
            a.traceFile = value();
        else
            usage(("unknown flag " + f).c_str());
    }
    if (a.workload != "paper-matrix" && a.workload != "fullsize-matrix" &&
        a.workload != "search-compile")
        usage("unknown or missing --workload");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Correctness tally: every failure also prints its reason. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("FAIL: %s\n", what.c_str());
        }
    }
};

std::string
fmtNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
readFirstLine(const char *path, const char *prefix)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (prefix == nullptr)
            return line;
        if (line.rfind(prefix, 0) == 0) {
            size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

void
printProvenance(const Args &a, const std::string &loadavg)
{
#if defined(__clang__)
    const char *cxx = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char *cxx = "gcc " __VERSION__;
#else
    const char *cxx = "unknown";
#endif
    std::printf("provenance: build=%s compiler=\"%s\" nproc=%ld "
                "cpu=\"%s\" loadavg=\"%s\" seed=%llu\n",
                PERFBENCH_BUILD_TYPE, cxx, sysconf(_SC_NPROCESSORS_ONLN),
                readFirstLine("/proc/cpuinfo", "model name").c_str(),
                loadavg.c_str(), static_cast<unsigned long long>(a.seed));
}

/** User + system CPU seconds of the whole process so far. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/**
 * Peak resident set of this process image. VmHWM, not ru_maxrss: the
 * latter keeps the spawning process's peak across execve.
 */
double
peakRssMb()
{
    std::string kib = readFirstLine("/proc/self/status", "VmHWM");
    return std::strtod(kib.c_str(), nullptr) / 1024.0;
}

// ---------------------------------------------------------------------------
// Benchmark spans (--trace 1)
// ---------------------------------------------------------------------------

/** One span: a public call into a layer, or an enclosing cell/pass. */
struct SpanRec
{
    const char *name;
    const char *layer;
    int parent;      ///< index in the owning vector, -1 for a root
    uint32_t cell;   ///< shared by every span of one cell
    int thread;
    int64_t beginNs;
    int64_t endNs;
};

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local int idx = next.fetch_add(1);
    return idx;
}

/** Spans of one cell; owned by one thread while the cell runs. A
 * tracer that is off records nothing. */
class CellTracer
{
  public:
    CellTracer(uint32_t cell, bool on) : cell_(cell), on_(on) {}

    /** RAII span: closes on scope exit, exceptions included. */
    class Scope
    {
      public:
        Scope(CellTracer &t, const char *layer, const char *name)
            : t_(t), idx_(static_cast<int>(t.spans_.size()))
        {
            if (!t.on_)
                return;
            int parent = t.stack_.empty() ? -1 : t.stack_.back();
            t.spans_.push_back({name, layer, parent, t.cell_,
                                threadIndex(), monoNs(), 0});
            t.stack_.push_back(idx_);
        }
        ~Scope()
        {
            if (!t_.on_)
                return;
            t_.spans_[idx_].endNs = monoNs();
            t_.stack_.pop_back();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        CellTracer &t_;
        int idx_;
    };

    std::vector<SpanRec> &spans() { return spans_; }

  private:
    uint32_t cell_;
    bool on_;
    std::vector<SpanRec> spans_;
    std::vector<int> stack_;
};

/** Self time per layer and per span name over one pass's spans
 * (roots excluded). */
struct TraceSummary
{
    std::map<std::string, double> selfByLayer;
    std::map<std::string, double> selfByName;
    double layerSelf = 0.0; ///< sum over every non-root span
};

/**
 * A span's self time is its duration minus its children's. Below the
 * per-pass root, children run one after another on their parent's
 * thread, so they never overlap.
 */
TraceSummary
summarizeSpans(const std::vector<SpanRec> &spans)
{
    std::vector<int64_t> self_ns(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRec &s = spans[i];
        self_ns[i] += s.endNs - s.beginNs;
        if (s.parent >= 0)
            self_ns[static_cast<size_t>(s.parent)] -= s.endNs - s.beginNs;
    }
    TraceSummary t;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent < 0)
            continue;
        double self = secondsBetween(0, self_ns[i]);
        t.selfByLayer[spans[i].layer] += self;
        t.selfByName[spans[i].name] += self;
        t.layerSelf += self;
    }
    return t;
}

/** Append one cell's spans under `root`, rebasing parent indices. */
void
appendSpans(std::vector<SpanRec> &dst, const std::vector<SpanRec> &src,
            int root)
{
    int base = static_cast<int>(dst.size());
    for (SpanRec s : src) {
        s.parent = s.parent < 0 ? root : s.parent + base;
        dst.push_back(s);
    }
}

/** Per-metric values over traced passes; reported as medians. */
struct MetricSeries
{
    std::vector<Metric> names; ///< first-seen order, with units
    std::map<std::string, std::vector<double>> values;

    void
    add(const std::vector<Metric> &ms)
    {
        for (const Metric &m : ms) {
            auto &v = values[m.name];
            if (v.empty())
                names.push_back(m);
            v.push_back(m.value);
        }
    }

    std::vector<Metric>
    medians() const
    {
        std::vector<Metric> out;
        for (const Metric &m : names)
            out.push_back({m.name, median(values.at(m.name)), m.unit});
        return out;
    }
};

/** Chrome trace-event JSON (chrome://tracing, Perfetto). */
void
writeChromeTrace(const std::string &path, const std::vector<SpanRec> &spans)
{
    if (path.empty())
        return;
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::printf("trace: cannot write %s\n", path.c_str());
        return;
    }
    int64_t origin = spans.empty() ? 0 : spans.front().beginNs;
    for (const SpanRec &s : spans)
        origin = std::min(origin, s.beginNs);
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRec &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,"
                     "\"args\":{\"cell\":%u,\"span\":%zu,\"parent\":%d}}\n",
                     i ? "," : "", s.name, s.layer,
                     static_cast<double>(s.beginNs - origin) / 1e3,
                     static_cast<double>(s.endNs - s.beginNs) / 1e3,
                     s.thread, s.cell, i, s.parent);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("trace: %zu spans written to %s\n", spans.size(),
                path.c_str());
}

/** Sum of telemetry span durations by name (the program's own spans). */
std::map<std::string, double>
telemetrySeconds()
{
    std::map<std::string, double> out;
    for (const telem::SpanRecord &s : telem::harvestSpans())
        out[s.name] += static_cast<double>(s.endNs - s.beginNs) * 1e-9;
    return out;
}

/** Per-layer work counters of one traced pass. */
struct LayerCounts
{
    uint64_t kernelsBuilt = 0;
    uint64_t specializeCalls = 0;
    uint64_t transformed = 0;
    uint64_t verifyRejects = 0;
    uint64_t searchCandidates = 0;
    uint64_t simRuns = 0;
    uint64_t profitRuns = 0;
    uint64_t profitKept = 0; ///< re-runs where the original kernel won
    double simInstrs = 0.0;    ///< warp instructions, main + re-runs
    double simSmCycles = 0.0;  ///< cycles x SMs, main + re-runs

    // Simulated statistics of the kept runs (deterministic).
    double cycles = 0.0;
    double instrs = 0.0;
    double l1Hits = 0.0, l1Accesses = 0.0;
    double l2Hits = 0.0, l2Accesses = 0.0;
    double l2Bytes = 0.0, l2Capacity = 0.0;
    double dramBytes = 0.0, dramCapacity = 0.0;
    double tensorIssues = 0.0;
    std::array<double, sim::kNumStallReasons> stall{};

    void
    add(const LayerCounts &o)
    {
        kernelsBuilt += o.kernelsBuilt;
        specializeCalls += o.specializeCalls;
        transformed += o.transformed;
        verifyRejects += o.verifyRejects;
        searchCandidates += o.searchCandidates;
        simRuns += o.simRuns;
        profitRuns += o.profitRuns;
        profitKept += o.profitKept;
        simInstrs += o.simInstrs;
        simSmCycles += o.simSmCycles;
        cycles += o.cycles;
        instrs += o.instrs;
        l1Hits += o.l1Hits;
        l1Accesses += o.l1Accesses;
        l2Hits += o.l2Hits;
        l2Accesses += o.l2Accesses;
        l2Bytes += o.l2Bytes;
        l2Capacity += o.l2Capacity;
        dramBytes += o.dramBytes;
        dramCapacity += o.dramCapacity;
        tensorIssues += o.tensorIssues;
        for (size_t r = 0; r < stall.size(); ++r)
            stall[r] += o.stall[r];
    }

    void
    keep(const sim::RunStats &s)
    {
        double c = static_cast<double>(s.cycles);
        cycles += c;
        instrs += static_cast<double>(s.totalDynInstrs());
        l1Hits += static_cast<double>(s.l1Hits);
        l1Accesses += static_cast<double>(s.l1Hits + s.l1Misses);
        l2Hits += static_cast<double>(s.l2Hits);
        l2Accesses += static_cast<double>(s.l2Hits + s.l2Misses);
        l2Bytes += static_cast<double>(s.l2Bytes);
        l2Capacity += c * s.l2PeakBytesPerCycle;
        dramBytes += static_cast<double>(s.dramBytes);
        dramCapacity += c * s.dramPeakBytesPerCycle;
        tensorIssues += static_cast<double>(s.tensorIssues);
        for (size_t r = 0; r < stall.size(); ++r)
            stall[r] += static_cast<double>(s.stallCycles[r]);
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer metrics shared by every workload's traced pass. Metrics a
 * workload does not exercise read 0. */
void
layerMetrics(std::vector<Metric> &m, const LayerCounts &c,
             const TraceSummary &t, const std::map<std::string, double> &tel,
             double wall, int jobs, double untraced_wall)
{
    auto get = [](const std::map<std::string, double> &by, const char *k) {
        auto it = by.find(k);
        return it == by.end() ? 0.0 : it->second;
    };
    auto telv = [&](const char *name) { return get(tel, name); };
    auto self = [&](const char *layer) { return get(t.selfByLayer, layer); };
    auto selfOf = [&](const char *span) { return get(t.selfByName, span); };
    double sim_s = selfOf("sim.run");
    double profit_s = selfOf("sim.profit_run");
    double specialize_s = selfOf("compiler.specialize");
    double sim_all = sim_s + profit_s;
    m.push_back({"sim.run_s", sim_s, "s"});
    m.push_back({"sim.runs", static_cast<double>(c.simRuns), "count"});
    m.push_back({"sim.kinstr_per_s", ratio(c.simInstrs / 1e3, sim_all),
                 "kinstr/s"});
    m.push_back({"sim.ns_per_sm_cycle", ratio(sim_all * 1e9, c.simSmCycles),
                 "ns"});
    m.push_back({"sim.build_s", telv("sim.run.build"), "s"});
    m.push_back({"sim.loop_s", telv("sim.run.loop"), "s"});
    m.push_back({"sim.profit_run_s", profit_s, "s"});
    m.push_back({"sim.profit_runs", static_cast<double>(c.profitRuns),
                 "count"});
    m.push_back({"harness.profit_kept_ratio",
                 ratio(static_cast<double>(c.profitKept),
                       static_cast<double>(c.profitRuns)),
                 "ratio"});
    m.push_back({"compiler.specialize_s", specialize_s, "s"});
    m.push_back({"compiler.specialize_calls",
                 static_cast<double>(c.specializeCalls), "count"});
    m.push_back({"compiler.search_candidates",
                 static_cast<double>(c.searchCandidates), "count"});
    m.push_back({"compiler.candidates_per_s",
                 ratio(static_cast<double>(c.searchCandidates),
                       specialize_s),
                 "1/s"});
    m.push_back({"compiler.transformed_ratio",
                 ratio(static_cast<double>(c.transformed),
                       static_cast<double>(c.specializeCalls)),
                 "ratio"});
    m.push_back({"compiler.verify_rejects",
                 static_cast<double>(c.verifyRejects), "count"});
    m.push_back({"compiler.analyze_s", selfOf("compiler.analyze"), "s"});
    m.push_back({"compiler.extract_s", telv("compile.extract"), "s"});
    m.push_back({"compiler.partition_s", telv("compile.partition"), "s"});
    m.push_back({"compiler.emit_s", telv("compile.emit"), "s"});
    m.push_back({"compiler.verify_s", telv("compile.verify"), "s"});
    m.push_back({"isa.roundtrip_s", selfOf("isa.roundtrip"), "s"});
    m.push_back({"workloads.build_s", selfOf("workloads.build"), "s"});
    m.push_back({"workloads.kernels", static_cast<double>(c.kernelsBuilt),
                 "count"});
    m.push_back({"harness.verify_s", selfOf("harness.verify"), "s"});

    m.push_back({"mem.l1_hit_rate", ratio(c.l1Hits, c.l1Accesses), "ratio"});
    m.push_back({"mem.l2_hit_rate", ratio(c.l2Hits, c.l2Accesses), "ratio"});
    m.push_back({"mem.l2_util", ratio(c.l2Bytes, c.l2Capacity), "ratio"});
    m.push_back({"mem.dram_util", ratio(c.dramBytes, c.dramCapacity),
                 "ratio"});
    double slots = 0.0;
    for (double v : c.stall)
        slots += v;
    m.push_back({"core.tensor_util", ratio(c.tensorIssues, slots), "ratio"});
    m.push_back({"sim.ipc", ratio(c.instrs, c.cycles), "instr/cycle"});
    for (size_t r = 0; r < sim::kNumStallReasons; ++r) {
        m.push_back({std::string("sim.stall.") +
                         sim::stallReasonName(
                             static_cast<sim::StallReason>(r)) +
                         "_share",
                     ratio(c.stall[r], slots), "ratio"});
    }

    m.push_back({"self.workloads_s", self("workloads"), "s"});
    m.push_back({"self.compiler_s", self("compiler"), "s"});
    m.push_back({"self.isa_s", self("isa"), "s"});
    m.push_back({"self.sim_s", self("sim"), "s"});
    m.push_back({"self.harness_s", self("harness"), "s"});
    m.push_back({"trace.wall_s", wall, "s"});
    m.push_back({"trace.coverage",
                 ratio(t.layerSelf, wall * static_cast<double>(jobs)),
                 "ratio"});
    m.push_back({"trace.overhead_s", wall - untraced_wall, "s"});
}

// ---------------------------------------------------------------------------
// Matrix workloads
// ---------------------------------------------------------------------------

struct MatrixSetup
{
    std::vector<harness::PaperConfig> which; ///< one per spec
    std::vector<harness::ConfigSpec> specs;
    std::vector<std::string> apps; ///< canonical (suite) order
    int jobs = 1;
};

MatrixSetup
matrixSetup(const Args &a)
{
    using harness::PaperConfig;
    MatrixSetup m;
    for (const auto &b : workloads::suite())
        m.apps.push_back(b.name);
    if (a.workload == "paper-matrix") {
        std::vector<PaperConfig> cfgs = {
            PaperConfig::Baseline, PaperConfig::CompilerTile,
            PaperConfig::CompilerAll, PaperConfig::WaspGpu};
        if (a.subset)
            cfgs = {PaperConfig::Baseline, PaperConfig::WaspGpu};
        for (PaperConfig c : cfgs)
            m.specs.push_back(harness::makeConfig(c));
        m.which = cfgs;
        m.jobs = 2;
    } else {
        m.which = {PaperConfig::Baseline, PaperConfig::WaspGpu};
        for (PaperConfig c : m.which)
            m.specs.push_back(harness::makeFullSizeConfig(c));
        m.jobs = 1;
    }
    if (a.subset)
        m.apps = {"pointnet", "hpcg"};
    return m;
}

/** Per-cell results in canonical order: [spec][canonical app]. */
std::vector<harness::BenchResult>
canonicalize(const MatrixSetup &m, const std::vector<std::string> &order,
             std::vector<harness::BenchResult> &&results)
{
    std::vector<harness::BenchResult> out(results.size());
    for (size_t s = 0; s < m.specs.size(); ++s) {
        for (size_t p = 0; p < order.size(); ++p) {
            size_t a = static_cast<size_t>(
                std::find(m.apps.begin(), m.apps.end(), order[p]) -
                m.apps.begin());
            out[s * m.apps.size() + a] =
                std::move(results[s * order.size() + p]);
        }
    }
    return out;
}

bool
sameCell(const harness::BenchResult &x, const harness::BenchResult &y)
{
    return std::memcmp(&x.weightedCycles, &y.weightedCycles,
                       sizeof(double)) == 0 &&
           std::memcmp(x.stallCycles.data(), y.stallCycles.data(),
                       sizeof(double) * x.stallCycles.size()) == 0 &&
           x.verified == y.verified;
}

uint64_t
matrixFingerprint(const std::vector<harness::BenchResult> &cells)
{
    Fnv f;
    for (const auto &c : cells) {
        f.f64(c.weightedCycles);
        for (double v : c.stallCycles)
            f.f64(v);
    }
    return f.h;
}

/** Geomean speedup of `config` over BASELINE (spec 0); 0 if absent. */
double
suiteSpeedup(const MatrixSetup &m,
             const std::vector<harness::BenchResult> &cells,
             harness::PaperConfig config)
{
    size_t n = m.apps.size();
    for (size_t s = 1; s < m.specs.size(); ++s) {
        if (m.which[s] != config)
            continue;
        std::vector<harness::BenchResult> base(cells.begin(),
                                               cells.begin() + n);
        std::vector<harness::BenchResult> other(
            cells.begin() + static_cast<long>(s * n),
            cells.begin() + static_cast<long>((s + 1) * n));
        return harness::speedup(base, other);
    }
    return 0.0;
}

/** Timestamps from MatrixOptions::onProgress (called under the
 * runner's lock; a cell starts and completes on one worker thread). */
struct ProgressLog
{
    int64_t startNs = 0;
    int lastDone = 0;
    std::map<std::thread::id, int64_t> open;
    std::vector<std::pair<int64_t, int64_t>> cells; ///< begin, end

    void
    onProgress(const harness::MatrixProgress &p)
    {
        int64_t now = monoNs();
        auto tid = std::this_thread::get_id();
        if (p.done > lastDone)
            cells.emplace_back(open[tid], now);
        else
            open[tid] = now;
        lastDone = p.done;
    }
};

void
harnessMetrics(std::vector<Metric> &m, const ProgressLog &log,
               int64_t end_ns, int jobs)
{
    double wall = secondsBetween(log.startNs, end_ns);
    double busy = 0.0;
    double queued = 0.0; // the runner's queue wait: matrix start to cell start
    int64_t last_start = 0;
    std::vector<double> ms;
    for (auto [b, e] : log.cells) {
        busy += secondsBetween(b, e);
        queued += secondsBetween(log.startNs, b);
        last_start = std::max(last_start, b);
        ms.push_back(secondsBetween(b, e) * 1e3);
    }
    // Tail: from the first worker running dry (its first completion
    // after the last cell started) to the end of the matrix.
    int64_t first_idle = end_ns;
    for (auto [b, e] : log.cells) {
        (void)b;
        if (e >= last_start)
            first_idle = std::min(first_idle, e);
    }
    std::sort(ms.begin(), ms.end());
    // Highest percentile that still has at least ten cells above it.
    size_t tail_idx = ms.size() > 10 ? ms.size() - 11 : 0;
    m.push_back({"harness.worker_util",
                 ratio(busy, wall * static_cast<double>(jobs)), "ratio"});
    m.push_back({"harness.queue_wait_s",
                 ratio(queued, static_cast<double>(ms.size())), "s"});
    m.push_back({"harness.tail_s", secondsBetween(first_idle, end_ns), "s"});
    m.push_back({"harness.cell_ms.p50", median(ms), "ms"});
    m.push_back({"harness.cell_ms.tail", ms.empty() ? 0.0 : ms[tail_idx],
                 "ms"});
    if (!ms.empty())
        std::printf("harness: %zu cells, cell_ms.tail is p%.1f (%zu cells "
                    "above it)\n",
                    ms.size(),
                    100.0 * static_cast<double>(tail_idx + 1) /
                        static_cast<double>(ms.size()),
                    ms.size() - tail_idx - 1);
}

/** Result of replaying one cell through the public layer calls. */
struct ReplayCell
{
    harness::BenchResult result;
    LayerCounts counts;
    std::vector<SpanRec> spans;
};

/**
 * Replay one matrix cell call by call, in the order harness::runKernel
 * makes them, with a span around each public call. Accumulates the
 * cell's weighted statistics exactly as the runner does so the result
 * must equal the timed runMatrix cell bit for bit.
 */
ReplayCell
replayCell(const harness::ConfigSpec &spec, const std::string &app,
           uint32_t cell, bool corrupt_expected)
{
    using Scope = CellTracer::Scope;
    ReplayCell out;
    CellTracer tr(cell, true);
    LayerCounts &c = out.counts;
    harness::BenchResult &r = out.result;
    r.benchmark = app;
    r.config = spec.name;
    {
        Scope cell_span(tr, "harness", "cell");
        const workloads::BenchmarkDef &bench = workloads::benchmark(app);
        for (const auto &mix : bench.kernels) {
            std::unique_ptr<mem::GlobalMemory> gmem;
            workloads::BuiltKernel k;
            {
                Scope s(tr, "workloads", "workloads.build");
                gmem = std::make_unique<mem::GlobalMemory>();
                k = mix.build(*gmem);
                ++c.kernelsBuilt;
            }
            if (corrupt_expected && k.outWords > 0) {
                k.expected[0] ^= 1u;
                corrupt_expected = false;
            }

            bool transform = spec.compileNonGemm || k.isGemm;
            compiler::CompileOptions copts = spec.copts;
            if (k.isGemm)
                copts.tile = true;
            isa::Program compiled = k.prog;
            bool transformed = false;
            if (transform) {
                compiler::CompileContext cctx;
                cctx.machine = harness::machineModel(spec.gpu);
                cctx.launch = {k.grid, k.params};
                Scope s(tr, "compiler", "compiler.specialize");
                compiler::CompileResult cr =
                    compiler::warpSpecialize(k.prog, copts, cctx);
                ++c.specializeCalls;
                c.searchCandidates +=
                    static_cast<uint64_t>(cr.report.searchCandidates);
                if (cr.report.transformed && !cr.report.verified) {
                    ++c.verifyRejects;
                } else if (cr.report.transformed) {
                    compiled = std::move(cr.program);
                    transformed = true;
                    ++c.transformed;
                }
            }

            sim::GpuConfig gpu = spec.gpu;
            if (k.isGemm && spec.gemmIdealMapping)
                gpu.mapPolicy = sim::WarpMapPolicy::GroupPipeline;
            auto simulated = [&](const sim::RunStats &st) {
                c.simInstrs += static_cast<double>(st.totalDynInstrs());
                c.simSmCycles += static_cast<double>(st.cycles) *
                                 static_cast<double>(gpu.numSms);
            };
            sim::RunStats stats;
            {
                Scope s(tr, "sim", "sim.run");
                stats = sim::runProgram(gpu, *gmem, compiled, k.grid,
                                        k.params);
                ++c.simRuns;
                simulated(stats);
            }
            if (transform && transformed && spec.compileNonGemm) {
                Scope s(tr, "sim", "sim.profit_run");
                sim::RunStats raw =
                    sim::runProgram(gpu, *gmem, k.prog, k.grid, k.params);
                ++c.profitRuns;
                if (raw.cycles < stats.cycles) {
                    stats = raw;
                    compiled = k.prog;
                    ++c.profitKept;
                }
                simulated(raw);
            }
            {
                Scope s(tr, "compiler", "compiler.analyze");
                compiler::analyzeProgram(compiled,
                                         harness::machineModel(gpu),
                                         {k.grid, k.params});
            }
            bool ok = true;
            {
                Scope s(tr, "harness", "harness.verify");
                for (uint32_t i = 0; i < k.outWords; ++i)
                    ok = ok && gmem->read32(k.outAddr + i * 4) ==
                                   k.expected[i];
            }
            c.keep(stats);
            r.verified = r.verified && ok;
            double cycles = static_cast<double>(stats.cycles);
            r.weightedCycles += mix.weight * cycles;
            for (size_t i = 0; i < sim::kNumStallReasons; ++i)
                r.stallCycles[i] +=
                    mix.weight * static_cast<double>(stats.stallCycles[i]);
        }
    }
    out.spans = std::move(tr.spans());
    return out;
}

struct RunOutput
{
    std::vector<Metric> metrics;
    Tally tally;
};

/** Check one timed pass's cells; returns its canonical results. */
std::vector<harness::BenchResult>
checkMatrixPass(const MatrixSetup &m, const std::vector<std::string> &order,
                std::vector<harness::BenchResult> &&raw,
                const std::vector<harness::BenchResult> *reference,
                Tally &tally)
{
    auto cells = canonicalize(m, order, std::move(raw));
    for (size_t i = 0; i < cells.size(); ++i) {
        const auto &c = cells[i];
        std::string id = c.benchmark + " x " + c.config;
        tally.check(c.outcome == sim::RunOutcome::Ok && c.verified &&
                        (reference == nullptr ||
                         sameCell(c, (*reference)[i])),
                    id + ": outcome " + sim::outcomeName(c.outcome) +
                        (c.verified ? "" : ", output mismatch") +
                        (reference && !sameCell(c, (*reference)[i])
                             ? ", differs from an earlier submission order"
                             : "") +
                        (c.diagnosis.empty() ? "" : " (" + c.diagnosis + ")"));
    }
    return cells;
}

/**
 * Print the simulated speedups beside the paper's and return the Fig 14
 * errors {WASP_GPU, WASP_COMPILER_ALL}. Only the 4-SM paper machine has
 * a paper reference; elsewhere both read kNotMeasured.
 */
std::pair<double, double>
fig14Errors(const MatrixSetup &m, const std::vector<harness::BenchResult> &c)
{
    double wasp = suiteSpeedup(m, c, harness::PaperConfig::WaspGpu);
    if (m.specs.front().gpu.numSms != 4) {
        std::printf("fullsize: WASP_GPU geomean %.4fx over BASELINE "
                    "(unvalidated: the suite is sized for 4 SMs, no paper "
                    "reference; not gated)\n",
                    wasp);
        return {kNotMeasured, kNotMeasured};
    }
    double all = suiteSpeedup(m, c, harness::PaperConfig::CompilerAll);
    std::printf("fig14: WASP_GPU geomean %.4fx (paper %.2fx)\n", wasp,
                kPaperWaspSpeedup);
    if (all > 0.0)
        std::printf("fig14: WASP_COMPILER_ALL geomean %.4fx (paper %.2fx)\n",
                    all, kPaperCompilerSpeedup);
    return {std::fabs(wasp / kPaperWaspSpeedup - 1.0),
            all > 0.0 ? std::fabs(all / kPaperCompilerSpeedup - 1.0)
                      : kNotMeasured};
}

/** Passes until the next would overrun `seconds` (at least one). */
template <class Pass>
void
repeatFor(double seconds, Pass &&pass)
{
    int64_t t0 = monoNs();
    std::vector<double> took;
    do {
        int64_t p0 = monoNs();
        pass(static_cast<int>(took.size()));
        took.push_back(secondsBetween(p0, monoNs()));
    } while (secondsBetween(t0, monoNs()) + median(took) <= seconds);
}

RunOutput
runMatrixWorkload(const Args &a, const MatrixSetup &m)
{
    RunOutput out;
    auto orderFor = [&](int pass) {
        std::vector<std::string> order = m.apps;
        Rng rng(a.seed * 1000003ull + static_cast<uint64_t>(pass));
        rng.shuffle(order);
        return order;
    };
    harness::MatrixOptions opts;
    opts.jobs = m.jobs;
    opts.onFault = harness::FaultPolicy::Skip;
    std::vector<harness::BenchResult> first;
    std::vector<double> walls;
    MetricSeries layer;

    repeatFor(a.seconds, [&](int pass) {
        std::vector<std::string> order = orderFor(pass);
        ProgressLog log;
        harness::MatrixOptions popts = opts;
        if (a.trace)
            popts.onProgress = [&log](const harness::MatrixProgress &p) {
                log.onProgress(p);
            };
        int64_t t0 = monoNs();
        double c0 = cpuSeconds();
        log.startNs = t0;
        auto raw = harness::runMatrix(m.specs, order, popts);
        int64_t t1 = monoNs();
        double wall = secondsBetween(t0, t1);
        double cpu = cpuSeconds() - c0;
        auto cells = checkMatrixPass(m, order, std::move(raw),
                                     first.empty() ? nullptr : &first,
                                     out.tally);
        std::printf("pass %d: runMatrix %zu cells in %.4f s, cpu %.4f s "
                    "(%d workers)\n",
                    pass + 1, cells.size(), wall, cpu, m.jobs);
        walls.push_back(wall);
        if (first.empty())
            first = std::move(cells);
        if (!a.trace)
            return;

        // Traced pass: replay every cell through the public layer calls
        // on the same number of workers, spans kept in memory.
        const std::vector<harness::BenchResult> &timed = first;
        std::vector<ReplayCell> rep(timed.size());
        // Drop the spans of earlier traced passes, then record this one.
        telem::resetForTest();
        telem::enable(true);
        int64_t r0 = monoNs();
        parallelFor(m.jobs, rep.size(), [&](size_t i) {
            size_t p = i % order.size();
            size_t s = i / order.size();
            size_t ai = static_cast<size_t>(
                std::find(m.apps.begin(), m.apps.end(), order[p]) -
                m.apps.begin());
            size_t canon = s * m.apps.size() + ai;
            rep[canon] = replayCell(m.specs[s], order[p],
                                    static_cast<uint32_t>(canon),
                                    a.corruptExpected && i == 0);
        });
        int64_t r1 = monoNs();
        telem::enable(false);
        auto tel = telemetrySeconds();

        LayerCounts counts;
        std::vector<SpanRec> spans;
        spans.push_back({"pass", "harness", -1, 0, threadIndex(), r0, r1});
        std::vector<harness::BenchResult> replayed;
        for (auto &rc : rep) {
            counts.add(rc.counts);
            appendSpans(spans, rc.spans, 0);
            replayed.push_back(rc.result);
        }
        size_t mismatches = 0;
        for (size_t i = 0; i < replayed.size(); ++i) {
            bool same = sameCell(replayed[i], timed[i]);
            mismatches += same ? 0 : 1;
            out.tally.check(same && replayed[i].verified,
                            "replay of " + timed[i].benchmark + " x " +
                                timed[i].config +
                                (replayed[i].verified
                                     ? " differs from the timed run"
                                     : ": output mismatch"));
        }
        std::printf("replay: %zu/%zu cells reproduce the timed runMatrix "
                    "weightedCycles, stallCycles and verified exactly\n",
                    replayed.size() - mismatches, replayed.size());
        double rwall = secondsBetween(r0, r1);
        TraceSummary ts = summarizeSpans(spans);
        std::vector<Metric> lm;
        harnessMetrics(lm, log, t1, m.jobs);
        layerMetrics(lm, counts, ts, tel, rwall, m.jobs, wall);
        layer.add(lm);
        std::printf("traced pass: %.4f s (untraced %.4f s)\n", rwall, wall);
        writeChromeTrace(a.traceFile, spans);
    });

    std::printf("fingerprint: %016llx (FNV-1a over per-cell weightedCycles "
                "+ stallCycles)\n",
                static_cast<unsigned long long>(matrixFingerprint(first)));
    std::printf("caches: every simulation starts with empty caches "
                "(Gpu::run rebuilds the machine per run)\n");
    auto [wasp_err, compiler_err] = fig14Errors(m, first);
    if (a.trace) {
        out.metrics = layer.medians();
        return out;
    }
    out.metrics = {{"wall_s", median(walls), "s"},
                   {"fig14_wasp_err", wasp_err, "ratio"},
                   {"fig14_compiler_err", compiler_err, "ratio"},
                   {"search_pred_speedup", kNotMeasured, "x"}};
    return out;
}

// ---------------------------------------------------------------------------
// search-compile
// ---------------------------------------------------------------------------

struct CompileInput
{
    std::string name;
    std::function<workloads::BuiltKernel(mem::GlobalMemory &)> build;
};

/** A generated kernel: builder and shape drawn from the seed. Every
 * draw happens in its own statement so the sequence is fixed. */
CompileInput
drawKernel(Rng &rng, int index)
{
    using namespace workloads;
    using K = BuiltKernel;
    std::string tag = "gen" + std::to_string(index) + "/";
    int kind = rng.pick(0, 6);
    int blocks = rng.pick(8, 28);
    int chunks = rng.pick(8, 28);
    int flops = rng.pick(0, 12);
    bool hmma = rng.pick(0, 1) == 1;
    int table = 1 << rng.pick(15, 17);
    int hot = rng.pick(0, 1) == 1 ? 4096 : 0;
    uint64_t seed = rng.gen();
    switch (kind) {
      case 0:
        return {tag + "stream", [=](mem::GlobalMemory &g) -> K {
                    return streamTriad(g, blocks, chunks, flops, hmma);
                }};
      case 1:
        return {tag + "gather", [=](mem::GlobalMemory &g) -> K {
                    return gatherScale(g, blocks, chunks, table, hot, flops,
                                       hmma, seed);
                }};
      case 2:
        return {tag + "chained", [=](mem::GlobalMemory &g) -> K {
                    return chainedGather(g, blocks, chunks, table, seed);
                }};
      case 3:
        return {tag + "tile", [=](mem::GlobalMemory &g) -> K {
                    return tileMma(g, blocks / 2 + 4, chunks + 4,
                                   flops / 2 + 4);
                }};
      case 4:
        return {tag + "spmv", [=](mem::GlobalMemory &g) -> K {
                    return spmvCsr(g, blocks * 2 + 8, chunks % 6 + 3,
                                   flops % 3, hmma ? 6 : 0, seed);
                }};
      case 5:
        return {tag + "stencil", [=](mem::GlobalMemory &g) -> K {
                    return stencil5(g, blocks, chunks);
                }};
      default:
        return {tag + "sweep", [=](mem::GlobalMemory &g) -> K {
                    return sweepScan(g, blocks, chunks);
                }};
    }
}

struct SearchSetup
{
    std::vector<harness::ConfigSpec> specs;
    std::vector<CompileInput> kernels;
};

SearchSetup
searchSetup(const Args &a)
{
    using harness::PaperConfig;
    SearchSetup s;
    std::vector<PaperConfig> cfgs = {PaperConfig::Baseline,
                                     PaperConfig::CompilerTile,
                                     PaperConfig::CompilerAll,
                                     PaperConfig::WaspGpu};
    if (a.subset)
        cfgs = {PaperConfig::Baseline, PaperConfig::WaspGpu};
    for (PaperConfig c : cfgs)
        s.specs.push_back(harness::makeConfig(c));
    // Suite kernels keep their built-in generator seeds: they are the
    // Table II stand-ins.
    for (const auto &b : workloads::suite()) {
        if (a.subset && b.name != "pointnet" && b.name != "hpcg")
            continue;
        for (const auto &mix : b.kernels)
            s.kernels.push_back({b.name + "/" + mix.label, mix.build});
    }
    Rng rng(a.seed);
    int generated = a.subset ? 3 : 15;
    for (int i = 0; i < generated; ++i)
        s.kernels.push_back(drawKernel(rng, i));
    return s;
}

/** One search-compile pass; spans only when traced. */
struct SearchPass
{
    Fnv fingerprint;
    std::vector<double> predRatio; ///< heuristic / search predicted cycles
    LayerCounts counts;
    std::vector<SpanRec> spans;
};

SearchPass
runSearchPass(const SearchSetup &s, bool traced, Tally &tally)
{
    using Scope = CellTracer::Scope;
    SearchPass out;
    LayerCounts &c = out.counts;
    for (size_t ki = 0; ki < s.kernels.size(); ++ki) {
        const CompileInput &in = s.kernels[ki];
        CellTracer tr(static_cast<uint32_t>(ki), traced);
        {
            Scope cell_span(tr, "harness", "cell");
            mem::GlobalMemory gmem;
            workloads::BuiltKernel k;
            {
                Scope b(tr, "workloads", "workloads.build");
                k = in.build(gmem);
                ++c.kernelsBuilt;
            }
            for (const harness::ConfigSpec &spec : s.specs) {
                double pred[2] = {0.0, 0.0};
                for (auto strategy : {compiler::PartitionStrategy::Heuristic,
                                      compiler::PartitionStrategy::Search}) {
                    bool search =
                        strategy == compiler::PartitionStrategy::Search;
                    std::string id = in.name + " x " + spec.name +
                                     (search ? " (search)" : " (heuristic)");
                    compiler::CompileOptions copts = spec.copts;
                    if (k.isGemm)
                        copts.tile = true;
                    copts.strategy = strategy;
                    compiler::CompileContext cctx;
                    cctx.machine = harness::machineModel(spec.gpu);
                    cctx.launch = {k.grid, k.params};
                    try {
                        compiler::CompileResult cr;
                        {
                            Scope sp(tr, "compiler", "compiler.specialize");
                            cr = compiler::warpSpecialize(k.prog, copts,
                                                          cctx);
                        }
                        ++c.specializeCalls;
                        c.transformed += cr.report.transformed ? 1 : 0;
                        c.searchCandidates += static_cast<uint64_t>(
                            cr.report.searchCandidates);
                        bool rejected =
                            cr.report.transformed && !cr.report.verified;
                        c.verifyRejects += rejected ? 1 : 0;
                        compiler::PerfPrediction perf;
                        {
                            Scope sp(tr, "compiler", "compiler.analyze");
                            perf = compiler::analyzeProgram(
                                cr.program, cctx.machine, cctx.launch);
                        }
                        std::string text;
                        bool same = false;
                        {
                            Scope sp(tr, "isa", "isa.roundtrip");
                            text = isa::disassemble(cr.program);
                            same = isa::disassemble(isa::assemble(text)) ==
                                   text;
                        }
                        out.fingerprint.str(text);
                        pred[search ? 1 : 0] =
                            perf.valid ? perf.predictedCycles : 0.0;
                        tally.check(!rejected && same,
                                    id + (rejected
                                              ? ": rejected by the verifier"
                                              : ": assembler round trip "
                                                "differs"));
                    } catch (const std::exception &e) {
                        tally.check(false, id + ": threw " + e.what());
                    }
                }
                if (pred[0] > 0.0 && pred[1] > 0.0)
                    out.predRatio.push_back(pred[0] / pred[1]);
            }
        }
        appendSpans(out.spans, tr.spans(), -1);
    }
    return out;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

RunOutput
runSearchWorkload(const Args &a, const SearchSetup &s)
{
    RunOutput out;
    std::vector<double> walls;
    MetricSeries layer;
    SearchPass first;
    bool have_first = false;
    size_t compiles = s.kernels.size() * s.specs.size() * 2;
    repeatFor(a.seconds, [&](int pass) {
        int64_t t0 = monoNs();
        double c0 = cpuSeconds();
        SearchPass p = runSearchPass(s, false, out.tally);
        double wall = secondsBetween(t0, monoNs());
        double cpu = cpuSeconds() - c0;
        walls.push_back(wall);
        std::printf("pass %d: %zu kernels, %zu compiles in %.4f s, cpu "
                    "%.4f s\n",
                    pass + 1, s.kernels.size(), compiles, wall, cpu);
        if (!have_first) {
            first = std::move(p);
            have_first = true;
        } else if (p.fingerprint.h != first.fingerprint.h) {
            out.tally.check(false, "pass " + std::to_string(pass + 1) +
                                       " compiled different programs");
        }
        if (!a.trace)
            return;
        // Drop the spans of earlier traced passes, then record this one.
        telem::resetForTest();
        telem::enable(true);
        int64_t r0 = monoNs();
        SearchPass traced = runSearchPass(s, true, out.tally);
        int64_t r1 = monoNs();
        telem::enable(false);
        out.tally.check(traced.fingerprint.h == first.fingerprint.h,
                        "traced pass compiled different programs");
        std::vector<SpanRec> spans;
        spans.push_back({"pass", "harness", -1, 0, threadIndex(), r0, r1});
        appendSpans(spans, traced.spans, 0);
        double rwall = secondsBetween(r0, r1);
        std::vector<Metric> lm;
        harnessMetrics(lm, ProgressLog{}, 0, 1); // no worker pool here
        layerMetrics(lm, traced.counts, summarizeSpans(spans),
                     telemetrySeconds(), rwall, 1, wall);
        layer.add(lm);
        std::printf("traced pass: %.4f s (untraced %.4f s)\n", rwall, wall);
        writeChromeTrace(a.traceFile, spans);
    });

    double speedup = geomean(first.predRatio);
    std::printf("fingerprint: %016llx (FNV-1a over every compiled "
                "program's disassembly)\n",
                static_cast<unsigned long long>(first.fingerprint.h));
    std::printf("search: geomean heuristic/search predicted cycles %.4fx "
                "over %zu (kernel, config) pairs (static model, unvalidated "
                "against the simulator)\n",
                speedup, first.predRatio.size());
    if (!a.trace) {
        out.metrics.push_back({"wall_s", median(walls), "s"});
        out.metrics.push_back({"fig14_wasp_err", kNotMeasured, "ratio"});
        out.metrics.push_back({"fig14_compiler_err", kNotMeasured, "ratio"});
        out.metrics.push_back({"search_pred_speedup", speedup, "x"});
    } else {
        out.metrics = layer.medians();
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    int64_t t0 = a.t0Ns >= 0 ? a.t0Ns : monoNs();

    // Hermetic timed runs: refuse every knob that changes the program.
    for (const char *knob : kEnvKnobs) {
        if (std::getenv(knob) != nullptr) {
            std::fprintf(stderr,
                         "wasp-perfbench: %s is set; it changes the "
                         "program under test, unset it\n",
                         knob);
            return 2;
        }
    }
    std::string loadavg = readFirstLine("/proc/loadavg", nullptr);

    bool matrix = a.workload != "search-compile";
    MatrixSetup ms;
    SearchSetup ss;
    if (matrix)
        ms = matrixSetup(a);
    else
        ss = searchSetup(a);
    double setup_s = secondsBetween(t0, monoNs());
    if (a.setupOnly) {
        std::printf("setup_s %s\n", fmtNum(setup_s).c_str());
        return 0;
    }

    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0, a.subset ? " subset" : "");
    printProvenance(a, loadavg);
    // WASP_REFERENCE_CLOCK is refused above, so the configs decide.
    const auto &specs = matrix ? ms.specs : ss.specs;
    std::printf("hermetic: WASP_TELEMETRY, WASP_LEDGER, "
                "WASP_REFERENCE_CLOCK, WASP_SM_THREADS, "
                "WASP_PROGRESS_FORCE unset; no result cache; no trace sink; "
                "clock=%s\n",
                specs.front().gpu.clockMode == sim::ClockMode::CycleSkip
                    ? "cycle-skip"
                    : "reference");

    RunOutput out = matrix ? runMatrixWorkload(a, ms)
                           : runSearchWorkload(a, ss);
    if (!a.trace) {
        out.metrics.insert(out.metrics.begin() + 1,
                           {"peak_rss_mb", peakRssMb(), "MB"});
        out.metrics.insert(out.metrics.begin() + 2,
                           {"setup_s", setup_s, "s"});
    }
    double error_rate = ratio(static_cast<double>(out.tally.failed),
                              static_cast<double>(out.tally.attempted));
    std::printf("error_rate = %s ratio (%llu failed of %llu attempted)\n",
                fmtNum(error_rate).c_str(),
                static_cast<unsigned long long>(out.tally.failed),
                static_cast<unsigned long long>(out.tally.attempted));
    for (const Metric &m : out.metrics)
        std::printf("%s = %s %s\n", m.name.c_str(), fmtNum(m.value).c_str(),
                    m.unit.c_str());

    bool correct = out.tally.failed == 0 && out.tally.attempted > 0;
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(out.tally.attempted) +
                       ", \"failed\": " + std::to_string(out.tally.failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                fmtNum(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
