#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "run.hh"

namespace stepbench {

using namespace cdma;

// ---- Spans ----

Spans::Spans(obs::TraceRecorder *trace, Clock::time_point origin,
             const std::string &process)
    : trace_(trace), origin_(origin)
{
    if (trace_ != nullptr)
        track_ = trace_->track(process, "main");
}

double
Spans::close(const char *name, Clock::time_point begin)
{
    const Clock::time_point end = Clock::now();
    if (trace_ != nullptr) {
        trace_->span(track_, name, secondsOf(begin - origin_),
                     secondsOf(end - origin_), {{"step", step_}});
    }
    return secondsOf(end - begin);
}

void
Spans::beginStep(uint64_t step)
{
    step_ = step;
    step_begin_ = Clock::now();
}

double
Spans::endStep()
{
    return close("step", step_begin_);
}

// ---- Tally ----

void
Tally::fail(const std::string &what)
{
    ++failed;
    if (notes.size() < 8)
        notes.push_back(what);
}

void
Tally::wrong(const std::string &what)
{
    correct = false;
    if (notes.size() < 8)
        notes.push_back(what);
}

void
Tally::addStep(const StepSums &step, double span_seconds)
{
    if (!measuring)
        return;
    step_seconds.push_back(span_seconds - step.check);
    step_sums.push_back(step);
    self_seconds += span_seconds - step.children();
    sums.forward += step.forward;
    sums.backward += step.backward;
    sums.sgd += step.sgd;
    sums.offload += step.offload;
    sums.prefetch += step.prefetch;
    sums.release += step.release;
    sums.check += step.check;
}

// ---- Spiller ----

namespace {

/** Minor page faults the process has taken so far. */
uint64_t
minorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<uint64_t>(usage.ru_minflt);
}

CdmaConfig
spillConfig(unsigned lanes, obs::MetricsRegistry *metrics,
            sim::FaultInjector *injector)
{
    CdmaConfig config;
    config.compression.lanes = lanes;
    config.transfer.timing_mode = TimingMode::Overlapped;
    config.transfer.fault_injector = injector;
    config.obs.metrics = metrics;
    return config;
}

} // namespace

Spiller::Spiller(unsigned lanes, obs::MetricsRegistry *metrics,
                 sim::FaultInjector *injector, Mutation mutation)
    : injector_(injector), mutation_(mutation),
      engine_(spillConfig(lanes, metrics, injector)), transfer_(engine_)
{
}

bool
Spiller::plant(Mutation m)
{
    if (mutation_ != m || planted_)
        return false;
    planted_ = true;
    return true;
}

bool
Spiller::checkCrossings(uint64_t before, uint64_t attempts,
                        SpillTicket ticket,
                        const std::vector<ShardTransfer> &shards)
{
    attempts_counted_ += attempts;
    if (injector_ == nullptr)
        return true;
    if (plant(Mutation::DropCrossing))
        --attempts;
    for (size_t s = 0; s < shards.size(); ++s) {
        const uint64_t payload = arena_.shard(ticket, s).payload.size();
        retries_.addShard(injector_->failureProbability(payload),
                          shards[s].attempts);
    }
    return injector_->crossingsSampled() - before == attempts;
}

std::optional<SpillTicket>
Spiller::offload(std::span<const uint8_t> source, uint64_t zvc_count,
                 size_t layer, Spans &spans, StepSums &sums, Tally &tally)
{
    ++tally.attempted;
    const uint64_t before = injector_ ? injector_->crossingsSampled() : 0;
    const uint64_t faults_before = minorFaults();
    StatusOr<SpilledOffload> spilled = spans.timed(
        "offload", sums.offload,
        [&] { return transfer_.offloadInto(source, arena_); });
    const uint64_t faults = minorFaults() - faults_before;

    std::optional<SpillTicket> ticket;
    spans.timed("check", sums.check, [&] {
        if (!spilled.ok()) {
            tally.fail("offload " + std::to_string(layer) + ": " +
                       spilled.status().toString());
            return;
        }
        ticket = spilled->ticket;
        const uint64_t wire = arena_.wireBytes(*ticket);
        const bool degraded = spilled->integrity.degraded_shards > 0;
        const uint64_t count =
            zvc_count + (!degraded && plant(Mutation::PerturbZvcCount));
        // A shard degraded to raw framing ships more than its ZVC size.
        const bool sized = injector_ != nullptr && degraded
            ? wire >= count
            : wire == count;
        if (!sized) {
            tally.fail("offload " + std::to_string(layer) + ": wire " +
                       std::to_string(wire) + " B, independent ZVC count " +
                       std::to_string(count) + " B");
        } else if (!checkCrossings(before, spilled->integrity.attempts,
                                   *ticket, spilled->shards)) {
            tally.fail("offload " + std::to_string(layer) +
                       ": injector crossings differ from counted attempts");
        }

        if (tally.measuring) {
            ++tally.offload_calls;
            tally.offload_faults += faults;
            tally.offload_shards += spilled->shards.size();
            tally.offload_raw += source.size();
            tally.offload_wire += wire;
            tally.integrity.accumulate(spilled->integrity);
        } else {
            if (warmup_raw_.size() <= layer) {
                warmup_raw_.resize(layer + 1, 0);
                warmup_wire_.resize(layer + 1, 0);
            }
            warmup_raw_[layer] += source.size();
            warmup_wire_[layer] += wire;
        }
    });
    return ticket;
}

void
Spiller::prefetch(std::optional<SpillTicket> ticket,
                  std::span<const uint8_t> source, Spans &spans,
                  StepSums &sums, Tally &tally)
{
    ++tally.attempted;
    if (!ticket) {
        tally.fail("prefetch skipped: its offload failed");
        return;
    }
    const uint64_t before = injector_ ? injector_->crossingsSampled() : 0;
    const uint64_t faults_before = minorFaults();
    StatusOr<PrefetchResult> restored = spans.timed(
        "prefetch", sums.prefetch,
        [&] { return transfer_.prefetch(arena_, *ticket); });
    const uint64_t faults = minorFaults() - faults_before;

    spans.timed("check", sums.check, [&] {
        if (!restored.ok()) {
            tally.fail("prefetch: " + restored.status().toString());
            return;
        }
        ByteVec &data = restored->data;
        if (plant(Mutation::FlipRestoredByte) && !data.empty())
            data[data.size() / 2] ^= 0x01;
        if (!sameBytes(data, source)) {
            tally.fail("prefetch: restored map differs from its source");
        } else if (!checkCrossings(before, restored->integrity.attempts,
                                   *ticket, restored->shards)) {
            tally.fail("prefetch: injector crossings differ from counted "
                       "attempts");
        }
        if (tally.measuring) {
            ++tally.prefetch_calls;
            tally.prefetch_faults += faults;
            tally.prefetch_shards += restored->shards.size();
            tally.prefetch_raw += data.size();
            tally.prefetch_wire += arena_.wireBytes(*ticket);
            tally.integrity.accumulate(restored->integrity);
        }
    });

    spans.timed("release", sums.release, [&] { arena_.release(*ticket); });
    if (tally.measuring)
        ++tally.release_calls;
}

std::vector<double>
Spiller::warmupRatios() const
{
    std::vector<double> ratios;
    for (size_t i = 0; i < warmup_raw_.size(); ++i) {
        ratios.push_back(warmup_wire_[i] > 0
                             ? static_cast<double>(warmup_raw_[i]) /
                                 static_cast<double>(warmup_wire_[i])
                             : 1.0);
    }
    return ratios;
}

// ---- Simulation ----

SimFigures
simulate(const NetworkDesc &desc, int64_t batch,
         const std::vector<double> &ratios, const sim::FaultConfig *faults,
         Mutation mutation, Spans &spans, double &host_seconds,
         Tally &tally)
{
    // The model prices faults in expectation; a private injector keeps
    // the spill path's sampled stream untouched.
    std::optional<sim::FaultInjector> injector;
    if (faults != nullptr)
        injector.emplace(*faults);
    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    config.transfer.fault_injector = injector ? &*injector : nullptr;
    const CdmaEngine engine(config);
    const VdnnMemoryManager manager(desc, batch);
    const PerfModel perf(config.gpu);
    const StepSimulator sim(manager, engine, perf, CudnnVersion::V5);

    SimFigures figures = spans.timed("sim", host_seconds, [&] {
        return SimFigures{sim.run(StepMode::Oracle),
                          sim.run(StepMode::Vdnn),
                          sim.run(StepMode::Cdma, ratios)};
    });
    if (mutation == Mutation::BreakSimOrder)
        std::swap(figures.oracle, figures.vdnn);

    // One pipeline fill per layer: the first shard's compression on the
    // way out and the last shard's expansion on the way back, which a
    // raw vDNN copy of an incompressible map does not pay.
    const double shard_bytes = static_cast<double>(
        TransferEngine(engine).shardWindows() *
        config.compression.window_bytes);
    const double fill = 2.0 * shard_bytes / config.gpu.comp_bandwidth;
    const double slack = fill * static_cast<double>(desc.layers.size());
    const double cdma_s = figures.compressed.total_seconds;
    if (!(figures.oracle.total_seconds <= cdma_s * (1.0 + 1e-12) &&
          cdma_s <= figures.vdnn.total_seconds + slack)) {
        char what[160];
        std::snprintf(what, sizeof(what),
                      "simulation out of order: oracle %.6g s, cDMA %.6g s, "
                      "vDNN %.6g s (+%.3g s fill)",
                      figures.oracle.total_seconds, cdma_s,
                      figures.vdnn.total_seconds, slack);
        tally.wrong(what);
    }
    return figures;
}

} // namespace stepbench
