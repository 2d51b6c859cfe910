/**
 * @file
 * Pieces one benchmark run is built from: the wall-clock span recorder,
 * the per-run tally of operations and layer times, the cDMA spill path
 * with its output checks, and the workload interface.
 *
 * The benchmark times every layer from outside, around its own calls
 * into public functions (Network::forward/backward/step,
 * TransferEngine::offloadInto/prefetch, SpillArena::release,
 * StepSimulator::run). Output checks run on every step, inside "check"
 * spans that are excluded from the step time.
 */

#ifndef STEPBENCH_RUN_HH
#define STEPBENCH_RUN_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "cdma/transfer_engine.hh"
#include "checks.hh"
#include "models/desc.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "perf/step_sim.hh"
#include "sim/fault_injector.hh"

namespace stepbench {

namespace obs = cdma::obs;

using Clock = std::chrono::steady_clock;

inline double
secondsOf(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** Output-check faults the self-test plants; each must be reported. */
enum class Mutation {
    None,
    FlipRestoredByte, ///< one restored byte flipped before the compare
    PerturbZvcCount,  ///< one independent ZVC count off by one
    DropCrossing,     ///< one counted link crossing dropped
    SkewRetries,      ///< observed retries pushed outside the bound
    BreakSimOrder,    ///< oracle and vDNN iterations swapped
    LossNaN,          ///< one step's loss replaced by NaN
    LossFlat,         ///< the loss history flattened to its first value
};

/** Wall time a step spent in each layer, by child span. */
struct StepSums {
    double forward = 0.0;
    double backward = 0.0;
    double sgd = 0.0;
    double offload = 0.0;
    double prefetch = 0.0;
    double release = 0.0;
    double check = 0.0;

    double children() const
    {
        return forward + backward + sgd + offload + prefetch + release +
            check;
    }
};

/**
 * Wall-clock spans of one run. With a recorder attached every span is
 * kept in memory and written as one Chrome trace at the end; spans of
 * one step carry the same "step" id.
 */
class Spans
{
  public:
    Spans(obs::TraceRecorder *trace, Clock::time_point origin,
          const std::string &process);

    /** Time @p fn as span @p name, adding its seconds to @p sum. */
    template <typename Fn>
    auto timed(const char *name, double &sum, Fn &&fn)
    {
        const Clock::time_point begin = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            sum += close(name, begin);
        } else {
            auto result = fn();
            sum += close(name, begin);
            return result;
        }
    }

    void beginStep(uint64_t step);
    /** Ends the step span; returns its wall seconds. */
    double endStep();

  private:
    double close(const char *name, Clock::time_point begin);

    obs::TraceRecorder *trace_;
    Clock::time_point origin_;
    obs::TrackId track_ = 0;
    uint64_t step_ = 0;
    Clock::time_point step_begin_;
};

/** Operations and layer times of one run. */
struct Tally {
    /** Layer sums cover measured steps only; warm-up steps are checked
     *  and counted as operations but not timed into the sums. */
    bool measuring = false;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Run-level checks (simulation order, loss, retry bound). */
    bool correct = true;
    std::vector<std::string> notes; ///< first few failure messages

    std::vector<double> step_seconds; ///< step span minus checks
    std::vector<StepSums> step_sums;  ///< each measured step's layers
    StepSums sums;                    ///< over measured steps
    double self_seconds = 0.0;        ///< step span minus child spans
    uint64_t offload_calls = 0;
    uint64_t offload_faults = 0; ///< minor page faults inside offloads
    uint64_t offload_shards = 0;
    uint64_t offload_raw = 0;
    uint64_t offload_wire = 0;
    uint64_t prefetch_calls = 0;
    uint64_t prefetch_faults = 0; ///< minor page faults inside prefetches
    uint64_t prefetch_shards = 0;
    uint64_t prefetch_raw = 0;
    uint64_t prefetch_wire = 0;
    uint64_t release_calls = 0;
    cdma::TransferIntegrity integrity;

    /** A failed operation. */
    void fail(const std::string &what);
    /** A failed run-level check. */
    void wrong(const std::string &what);
    /** Fold a finished step in (no-op while not measuring). */
    void addStep(const StepSums &step, double span_seconds);
};

/**
 * The cDMA path a run drives — one engine, one SpillArena for the whole
 * run — with the output checks around every offload and prefetch.
 */
class Spiller
{
  public:
    Spiller(unsigned lanes, obs::MetricsRegistry *metrics,
            cdma::sim::FaultInjector *injector, Mutation mutation);
    /** The transfer engine holds the address of engine_. */
    Spiller(const Spiller &) = delete;
    Spiller &operator=(const Spiller &) = delete;

    const cdma::CdmaEngine &engine() const { return engine_; }
    const cdma::SpillArena &arena() const { return arena_; }
    const RetryTally &retries() const { return retries_; }
    RetryTally &retries() { return retries_; }
    /** The link's fault process (nullptr = a perfect link). */
    const cdma::sim::FaultConfig *faults() const
    {
        return injector_ != nullptr ? &injector_->config() : nullptr;
    }
    /** Wire crossings counted in every flow's TransferIntegrity. */
    uint64_t attemptsCounted() const { return attempts_counted_; }

    /**
     * Offload map @p layer and check its arena wire bytes against
     * @p zvc_count (and, on a faulty link, the sampled crossings).
     * Returns the ticket, or nullopt when the offload failed.
     */
    std::optional<cdma::SpillTicket>
    offload(std::span<const uint8_t> source, uint64_t zvc_count,
            size_t layer, Spans &spans, StepSums &sums, Tally &tally);

    /** Prefetch @p ticket, check it against @p source, release it. */
    void prefetch(std::optional<cdma::SpillTicket> ticket,
                  std::span<const uint8_t> source, Spans &spans,
                  StepSums &sums, Tally &tally);

    /** Per-layer raw ÷ wire over the offloads made while not measuring
     *  (the warm-up steps), in layer order. */
    std::vector<double> warmupRatios() const;

  private:
    /** True once, the first time @p m is the planted mutation. */
    bool plant(Mutation m);
    /** Check the injector saw exactly @p attempts crossings since
     *  @p before, and tally each shard's retries. */
    bool checkCrossings(uint64_t before, uint64_t attempts,
                        cdma::SpillTicket ticket,
                        const std::vector<cdma::ShardTransfer> &shards);

    cdma::sim::FaultInjector *injector_;
    Mutation mutation_;
    bool planted_ = false;
    cdma::CdmaEngine engine_;
    cdma::TransferEngine transfer_;
    cdma::SpillArena arena_;
    RetryTally retries_;
    uint64_t attempts_counted_ = 0;
    std::vector<uint64_t> warmup_raw_;
    std::vector<uint64_t> warmup_wire_;
};

/** The step simulator's iterations for one network and ratios. */
struct SimFigures {
    cdma::StepResult oracle;
    cdma::StepResult vdnn;
    cdma::StepResult compressed; ///< cDMA with the measured ratios
};

/**
 * Simulate @p desc at @p batch under TimingMode::Overlapped with the
 * measured per-row output @p ratios, inside one "sim" span, and check
 * oracle <= cDMA <= vDNN (allowing one pipeline fill per layer). With
 * @p faults the engine prices that fault process's expected retries.
 */
SimFigures simulate(const cdma::NetworkDesc &desc, int64_t batch,
                    const std::vector<double> &ratios,
                    const cdma::sim::FaultConfig *faults, Mutation mutation,
                    Spans &spans, double &host_seconds, Tally &tally);

/** One workload: a fixed round of steps, repeated for the run. */
class Workload
{
  public:
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;

    /** Steps in one whole round; a run attempts whole rounds. */
    virtual size_t roundSteps() const = 0;
    /** Untimed steps that bring arena slabs and pool threads up. */
    virtual size_t warmupSteps() const = 0;
    /** Run step @p index, checks included. */
    virtual void step(uint64_t index, Spans &spans, Tally &tally) = 0;
    /** Simulate the iteration from the warm-up's measured ratios. */
    virtual SimFigures simulate(Spans &spans, double &host_seconds,
                                Tally &tally) = 0;
    /** Run-level checks after the last step. */
    virtual void finish(Tally &) {}
};

/** Names of the workloads, in documentation order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name (nullptr if unknown). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, Spiller &spiller,
                                       Mutation mutation);

/** Link fault process of @p name's workload (rate 0 = perfect link). */
cdma::sim::FaultConfig faultConfigFor(const std::string &name,
                                      uint64_t seed);

} // namespace stepbench

#endif // STEPBENCH_RUN_HH
