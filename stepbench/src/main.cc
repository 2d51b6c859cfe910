/**
 * @file
 * The measured end-to-end step benchmark.
 *
 *   stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out <dir>]
 *   stepbench --self-test
 *
 * One run builds its workload from --seed, runs untimed warm-up steps
 * (counted in setup_s), then measures whole rounds of steps for
 * --seconds and prints every metric by name and unit, the operations
 * attempted and failed, and as its last line one JSON object. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 they
 * are the per-layer ones, and a Chrome trace of every timed call plus
 * a metrics file are written to --out (default stepbench/results).
 *
 * --self-test plants one fault in each output check and exits non-zero
 * unless every planted fault is reported.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "run.hh"

using namespace stepbench;
namespace sim = cdma::sim;

namespace {

/** Taken during static initialization: the process's start. */
const Clock::time_point kProcessStart = Clock::now();

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out = "stepbench/results";
    bool self_test = false;
};

struct Metric {
    double value;
    const char *unit;
};

using Metrics = std::vector<std::pair<std::string, Metric>>;

struct RunResult {
    Tally tally;
    Metrics end_to_end;
    Metrics per_layer;
};

double
percentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    if (v.empty())
        return 0.0;
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Median over whole rounds of @p bytes_per_round / the round's seconds
 * in @p leg. Every round moves the same bytes, so this is the run's
 * throughput with slow outlier rounds voted out.
 */
double
medianRoundRate(const std::vector<StepSums> &steps, size_t round,
                double bytes_per_round, double StepSums::*leg)
{
    std::vector<double> rates;
    for (size_t begin = 0; begin + round <= steps.size(); begin += round) {
        double seconds = 0.0;
        for (size_t i = begin; i < begin + round; ++i)
            seconds += steps[i].*leg;
        rates.push_back(ratio(bytes_per_round, seconds));
    }
    return percentile(rates, 0.5);
}

/** Wall seconds inside the compression kernels, summed over lanes. */
double
kernelSeconds(obs::MetricsRegistry &metrics, const std::string &backend)
{
    obs::HistogramMetric &h =
        metrics.histogram("kernel.compress.wall_seconds." + backend);
    return h.mean() * static_cast<double>(h.count());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1e3; // KiB on Linux
}

RunResult
runOnce(const Options &opts, Mutation mutation)
{
    const unsigned lanes =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    obs::MetricsRegistry metrics;
    std::unique_ptr<obs::TraceRecorder> trace;
    if (opts.trace)
        trace = std::make_unique<obs::TraceRecorder>();

    const sim::FaultConfig faults = faultConfigFor(opts.workload, opts.seed);
    std::unique_ptr<sim::FaultInjector> injector;
    if (faults.bit_flip_rate_per_byte > 0.0)
        injector = std::make_unique<sim::FaultInjector>(faults);

    RunResult result;
    Tally &tally = result.tally;
    Spiller spiller(lanes, &metrics, injector.get(), mutation);
    std::unique_ptr<Workload> workload =
        makeWorkload(opts.workload, opts.seed, spiller, mutation);
    Spans spans(trace.get(), kProcessStart, opts.workload);

    uint64_t index = 0;
    for (; index < workload->warmupSteps(); ++index)
        workload->step(index, spans, tally);
    const double setup_s = secondsOf(Clock::now() - kProcessStart);

    const std::string backend = spiller.engine().backendName();
    const double kernel_before = kernelSeconds(metrics, backend);
    const cdma::SpillStats arena_before = spiller.arena().stats();
    tally.measuring = true;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opts.seconds));
    do {
        for (size_t k = 0; k < workload->roundSteps(); ++k, ++index)
            workload->step(index, spans, tally);
    } while (Clock::now() < deadline);
    tally.measuring = false;
    const double kernel_s = kernelSeconds(metrics, backend) - kernel_before;

    double sim_host_s = 0.0;
    const SimFigures figures = workload->simulate(spans, sim_host_s, tally);
    workload->finish(tally);
    if (injector != nullptr &&
        injector->crossingsSampled() != spiller.attemptsCounted()) {
        tally.wrong("injector sampled " +
                    std::to_string(injector->crossingsSampled()) +
                    " crossings, the flows counted " +
                    std::to_string(spiller.attemptsCounted()));
    }

    const double steps = static_cast<double>(tally.step_seconds.size());
    const cdma::SpillStats &arena = spiller.arena().stats();
    const StepSums &sums = tally.sums;
    const cdma::TransferIntegrity &integrity = tally.integrity;
    const double raw_off = static_cast<double>(tally.offload_raw);
    const double raw_pre = static_cast<double>(tally.prefetch_raw);
    const double cdma_s = figures.compressed.total_seconds;
    const size_t round = workload->roundSteps();
    const double rounds = steps / static_cast<double>(round);

    result.end_to_end = {
        {"setup_s", {setup_s, "s"}},
        {"step_ms", {percentile(tally.step_seconds, 0.5) * 1e3, "ms"}},
        {"step_ms_p90", {percentile(tally.step_seconds, 0.9) * 1e3, "ms"}},
        {"offload_gbps",
         {medianRoundRate(tally.step_sums, round, raw_off / rounds,
                          &StepSums::offload) / 1e9,
          "GB/s"}},
        {"prefetch_gbps",
         {medianRoundRate(tally.step_sums, round, raw_pre / rounds,
                          &StepSums::prefetch) / 1e9,
          "GB/s"}},
        {"compression_ratio",
         {ratio(raw_off, static_cast<double>(tally.offload_wire)), "x"}},
        {"sim_step_ms", {cdma_s * 1e3, "ms"}},
        {"sim_speedup_vs_vdnn",
         {ratio(figures.vdnn.total_seconds, cdma_s), "x"}},
        {"host_spill_mb", {static_cast<double>(arena.slab_bytes) / 1e6, "MB"}},
        {"peak_rss_mb", {peakRssMb(), "MB"}},
    };

    double fwd_stall = 0.0, bwd_stall = 0.0, off_overlap = 0.0,
           pre_overlap = 0.0;
    for (const cdma::LayerStepStats &layer : figures.compressed.layers) {
        fwd_stall += layer.forward_stall;
        bwd_stall += layer.backward_stall;
        off_overlap += layer.offload.overlap_fraction;
        pre_overlap += layer.prefetch.overlap_fraction;
    }
    const double layers =
        std::max<double>(1.0, static_cast<double>(figures.compressed.layers.size()));
    const auto per_step = [&](double total) { return ratio(total, steps); };
    const auto count = [](uint64_t v) { return static_cast<double>(v); };

    result.per_layer = {
        {"dnn.forward_ms", {per_step(sums.forward) * 1e3, "ms"}},
        {"dnn.backward_ms", {per_step(sums.backward) * 1e3, "ms"}},
        {"dnn.sgd_ms", {per_step(sums.sgd) * 1e3, "ms"}},
        {"offload.ms", {per_step(sums.offload) * 1e3, "ms"}},
        {"offload.calls", {per_step(count(tally.offload_calls)), "count"}},
        {"offload.shards", {per_step(count(tally.offload_shards)), "count"}},
        {"offload.minor_faults",
         {per_step(count(tally.offload_faults)), "count"}},
        {"offload.kernel_ms", {per_step(kernel_s) * 1e3, "ms"}},
        {"offload.lane_busy_share",
         {ratio(kernel_s, lanes * sums.offload), "share"}},
        {"prefetch.ms", {per_step(sums.prefetch) * 1e3, "ms"}},
        {"prefetch.calls", {per_step(count(tally.prefetch_calls)), "count"}},
        {"prefetch.shards", {per_step(count(tally.prefetch_shards)), "count"}},
        {"prefetch.minor_faults",
         {per_step(count(tally.prefetch_faults)), "count"}},
        {"arena.release_us",
         {ratio(sums.release, count(tally.release_calls)) * 1e6, "us"}},
        {"arena.slab_allocations", {count(arena.slab_allocations), "count"}},
        {"arena.reused_slot_share",
         {ratio(count(arena.reused_slots - arena_before.reused_slots),
                count(arena.stored_shards - arena_before.stored_shards)),
          "share"}},
        {"arena.high_water_payload_mb",
         {count(arena.high_water_payload_bytes) / 1e6, "MB"}},
        {"wire.offload_mb", {per_step(count(tally.offload_wire)) / 1e6, "MB"}},
        {"wire.prefetch_mb",
         {per_step(count(tally.prefetch_wire)) / 1e6, "MB"}},
        {"integrity.attempts", {per_step(count(integrity.attempts)), "count"}},
        {"integrity.retries", {per_step(count(integrity.retries)), "count"}},
        {"integrity.crc_failures",
         {per_step(count(integrity.crc_failures)), "count"}},
        {"integrity.link_faults",
         {per_step(count(integrity.link_faults)), "count"}},
        {"integrity.degraded_shards",
         {per_step(count(integrity.degraded_shards)), "count"}},
        {"integrity.failed_wire_mb",
         {per_step(count(integrity.failed_wire_bytes)) / 1e6, "MB"}},
        {"integrity.retry_stall_ms",
         {per_step(integrity.retry_stall_seconds) * 1e3, "ms"}},
        {"sim.host_ms", {sim_host_s * 1e3, "ms"}},
        {"sim.compute_ms", {figures.compressed.compute_seconds * 1e3, "ms"}},
        {"sim.forward_stall_ms", {fwd_stall * 1e3, "ms"}},
        {"sim.backward_stall_ms", {bwd_stall * 1e3, "ms"}},
        {"sim.offload_overlap", {off_overlap / layers, "share"}},
        {"sim.prefetch_overlap", {pre_overlap / layers, "share"}},
        {"bench.self_ms", {per_step(tally.self_seconds) * 1e3, "ms"}},
    };

    if (trace != nullptr) {
        std::filesystem::create_directories(opts.out);
        const std::string stem = opts.out + "/" + opts.workload;
        trace->writeFileOrDie(stem + ".trace.json");
        std::ofstream file(stem + ".metrics.json");
        file << "{\n  \"workload\": \"" << opts.workload << "\",\n"
             << "  \"seed\": " << opts.seed << ",\n"
             << "  \"kernel_backend\": \"" << backend << "\",\n"
             << "  \"lanes\": " << lanes << ",\n  \"metrics\": {";
        const char *sep = "\n";
        for (const Metrics *set : {&result.end_to_end, &result.per_layer}) {
            for (const auto &[name, m] : *set) {
                char value[64];
                std::snprintf(value, sizeof(value), "%.17g", m.value);
                file << sep << "    \"" << name << "\": {\"value\": " << value
                     << ", \"unit\": \"" << m.unit << "\"}";
                sep = ",\n";
            }
        }
        file << "\n  },\n  \"registry\": " << metrics.toJson() << "\n}\n";
    }
    return result;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

void
printResult(const RunResult &result, bool trace)
{
    const Tally &tally = result.tally;
    const Metrics &metrics = trace ? result.per_layer : result.end_to_end;
    for (const auto &[name, m] : metrics)
        std::printf("%-28s %14.6f %s\n", name.c_str(), m.value, m.unit);
    std::printf("attempted %llu failed %llu\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (const std::string &note : tally.notes)
        std::printf("check: %s\n", note.c_str());

    std::string line = "{\"correct\": ";
    line += tally.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(tally.attempted);
    line += ", \"failed\": " + std::to_string(tally.failed);
    line += ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, m] : metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        line += sep + jsonString(name) + ": {\"value\": " + value +
            ", \"unit\": " + jsonString(m.unit) + "}";
        sep = ", ";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

/** Plant each output-check fault and require the benchmark to report it. */
int
selfTest()
{
    struct Case {
        Mutation mutation;
        const char *name;
        const char *workload;
    };
    const Case cases[] = {
        {Mutation::FlipRestoredByte, "flip one restored byte", "spill_vgg"},
        {Mutation::PerturbZvcCount, "perturb one independent ZVC count",
         "train_alexnet"},
        {Mutation::DropCrossing, "drop one counted crossing",
         "spill_faulty"},
        {Mutation::SkewRetries, "push retries outside their bound",
         "spill_faulty"},
        {Mutation::BreakSimOrder, "swap the oracle and vDNN iterations",
         "train_alexnet"},
        {Mutation::LossNaN, "make one loss NaN", "train_alexnet"},
        {Mutation::LossFlat, "flatten the loss history", "train_alexnet"},
        {Mutation::None, "no planted fault", "train_alexnet"},
    };
    int missed = 0;
    for (const Case &c : cases) {
        Options opts;
        opts.workload = c.workload;
        opts.seconds = 0.0;
        const RunResult result = runOnce(opts, c.mutation);
        const bool reported = result.tally.failed > 0 || !result.tally.correct;
        const bool ok = reported == (c.mutation != Mutation::None);
        missed += !ok;
        std::printf("self-test %-36s on %-13s %s%s%s\n", c.name, c.workload,
                    reported ? "reported" : "not reported",
                    ok ? "" : "  <-- WRONG",
                    result.tally.notes.empty()
                        ? ""
                        : ("  (" + result.tally.notes.front() + ")").c_str());
    }
    std::printf("self-test %s\n", missed == 0 ? "passed" : "FAILED");
    return missed == 0 ? 0 : 1;
}

bool
parse(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") {
            opts.self_test = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        if (arg == "--workload")
            opts.workload = value;
        else if (arg == "--seed")
            opts.seed = std::stoull(value);
        else if (arg == "--seconds")
            opts.seconds = std::stod(value);
        else if (arg == "--trace")
            opts.trace = value != "0";
        else if (arg == "--out")
            opts.out = value;
        else
            return false;
    }
    return opts.self_test ||
        std::find(workloadNames().begin(), workloadNames().end(),
                  opts.workload) != workloadNames().end();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parse(argc, argv, opts)) {
        std::fprintf(stderr,
                     "usage: stepbench --workload <train_alexnet|spill_vgg|"
                     "spill_faulty> --seed <n> --seconds <s> --trace <0|1> "
                     "[--out <dir>]\n       stepbench --self-test\n");
        return 2;
    }
    if (opts.self_test)
        return selfTest();
    printResult(runOnce(opts, Mutation::None), opts.trace);
    return 0;
}
