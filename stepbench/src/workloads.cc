/**
 * @file
 * The benchmark's workloads: a real SGD step of the scaled AlexNet with
 * every activation map spilled and restored (train_alexnet), and a bulk
 * spill of full-size VGG-16's generated maps on a clean (spill_vgg) or
 * faulty (spill_faulty) link.
 */

#include <cmath>
#include <numeric>

#include "data/synthetic.hh"
#include "dnn/loss.hh"
#include "models/describe.hh"
#include "models/scaled.hh"
#include "run.hh"
#include "sparsity/generator.hh"
#include "sparsity/schedule.hh"

namespace stepbench {

using namespace cdma;

namespace {

constexpr uint64_t kWindowBytes = 4096;

/** Scaled AlexNet training batch: about 0.1 s per step on 4 cores. */
constexpr int64_t kAlexNetBatch = 8;
/** Weight-init seed of the scaled AlexNet: the model is fixed, and
 *  --seed draws the training data. */
constexpr uint64_t kAlexNetInitSeed = 0xA1E7;
/** SGD steps of one round; each round retrains from the same initial
 *  weights on the same data, so every round does identical work. */
constexpr size_t kAlexNetRound = 10;
/** Training progress points the VGG maps are generated at. */
constexpr double kVggPoints[] = {0.1, 0.4, 0.7, 1.0};
/** Link fault rate of spill_faulty (flips per byte per crossing). */
constexpr double kFaultRate = 1e-7;

double
mean(const std::vector<double> &v, size_t begin, size_t end)
{
    return std::accumulate(v.begin() + begin, v.begin() + end, 0.0) /
        static_cast<double>(end - begin);
}

/** One real SGD step of the scaled AlexNet per benchmark step. */
class TrainAlexNet : public Workload
{
  public:
    TrainAlexNet(uint64_t seed, Spiller &spiller, Mutation mutation)
        : spiller_(spiller), mutation_(mutation), seed_(seed)
    {
    }

    size_t roundSteps() const override { return kAlexNetRound; }
    size_t warmupSteps() const override { return kAlexNetRound; }

    void step(uint64_t index, Spans &spans, Tally &tally) override
    {
        if (index % kAlexNetRound == 0)
            restart();
        const Minibatch batch = dataset_.nextTrainBatch(kAlexNetBatch);
        StepSums sums;
        spans.beginStep(index);

        ++tally.attempted;
        const double loss = spans.timed("forward", sums.forward, [&] {
            return loss_.forward(net_.forward(batch.images), batch.labels);
        });
        if (records_.empty())
            records_ = net_.activationRecords();

        std::vector<std::optional<SpillTicket>> tickets;
        for (size_t i = 0; i < records_.size(); ++i) {
            const auto source =
                net_.outputs()[records_[i].output_index].rawBytes();
            const uint64_t count = spans.timed(
                "check", sums.check,
                [&] { return zvcWireBytes(source, kWindowBytes); });
            tickets.push_back(
                spiller_.offload(source, count, i, spans, sums, tally));
        }
        for (size_t i = records_.size(); i-- > 0;) {
            spiller_.prefetch(
                tickets[i],
                net_.outputs()[records_[i].output_index].rawBytes(), spans,
                sums, tally);
        }

        spans.timed("backward", sums.backward,
                    [&] { net_.backward(loss_.backward()); });
        spans.timed("sgd", sums.sgd, [&] { net_.step(SgdConfig{}); });
        tally.addStep(sums, spans.endStep());

        losses_.push_back(mutation_ == Mutation::LossNaN && index == 0
                              ? std::nan("")
                              : loss);
    }

    SimFigures simulate(Spans &spans, double &host_seconds,
                        Tally &tally) override
    {
        const NetworkDesc desc = describeNetwork(
            "ScaledAlexNet", net_, Shape4D{1, 3, 32, 32}, kAlexNetBatch);
        return stepbench::simulate(desc, kAlexNetBatch,
                                   spiller_.warmupRatios(),
                                   spiller_.faults(), mutation_,
                                   spans, host_seconds, tally);
    }

    /**
     * The loss is finite, falls over the first round, and every later
     * round reproduces the first round's losses bit for bit.
     */
    void finish(Tally &tally) override
    {
        if (mutation_ == Mutation::LossFlat)
            std::fill(losses_.begin(), losses_.end(), losses_.front());
        for (const double loss : losses_) {
            if (!std::isfinite(loss)) {
                tally.wrong("training loss is not finite");
                return;
            }
        }
        constexpr size_t k = kAlexNetRound / 4;
        const double first = mean(losses_, 0, k);
        const double last = mean(losses_, kAlexNetRound - k, kAlexNetRound);
        if (!(last < first)) {
            tally.wrong("training loss did not fall: first " +
                        std::to_string(k) + " steps " +
                        std::to_string(first) + ", last " +
                        std::to_string(last));
        }
        for (size_t i = kAlexNetRound; i < losses_.size(); ++i) {
            if (losses_[i] != losses_[i % kAlexNetRound]) {
                tally.wrong("round " + std::to_string(i / kAlexNetRound) +
                            " step " + std::to_string(i % kAlexNetRound) +
                            " loss differs from the first round's");
                return;
            }
        }
    }

  private:
    /** Start a round: initial weights, data stream from the seed. */
    void restart()
    {
        Rng rng(kAlexNetInitSeed);
        net_ = buildScaledByName("AlexNet", rng);
        net_.setTraining(true);
        SyntheticDataConfig data;
        data.seed = seed_;
        dataset_ = SyntheticDataset(data);
    }

    Spiller &spiller_;
    Mutation mutation_;
    uint64_t seed_;
    Network net_;
    SyntheticDataset dataset_;
    SoftmaxCrossEntropy loss_;
    std::vector<ActivationRecord> records_;
    std::vector<double> losses_;
};

/**
 * Every offloaded row of full-size VGG-16 at batch 1, offloaded in
 * forward order and prefetched in backward order; no DNN compute. The
 * maps are generated once, at DensitySchedule densities of several
 * training points, and the steps cycle through the points.
 */
class SpillVgg : public Workload
{
  public:
    SpillVgg(uint64_t seed, Spiller &spiller, Mutation mutation)
        : spiller_(spiller), mutation_(mutation), desc_(vggDesc())
    {
        const DensitySchedule schedule(desc_);
        const ActivationGenerator generator;
        Rng rng(seed);
        // Row i's input is row i-1's output; the last row's output is
        // never offloaded, and the image batch is not an activation.
        for (const double t : kVggPoints) {
            Point point;
            for (size_t row = 0; row + 1 < desc_.layers.size(); ++row) {
                point.maps.push_back(generator.generate(
                    desc_.layers[row].shape(kBatch), Layout::NCHW,
                    schedule.density(row, t), rng));
                point.zvc.push_back(zvcWireBytes(
                    point.maps.back().rawBytes(), kWindowBytes));
            }
            points_.push_back(std::move(point));
        }
    }

    size_t roundSteps() const override { return points_.size(); }
    size_t warmupSteps() const override { return points_.size(); }

    void step(uint64_t index, Spans &spans, Tally &tally) override
    {
        const Point &point = points_[index % points_.size()];
        StepSums sums;
        spans.beginStep(index);
        std::vector<std::optional<SpillTicket>> tickets;
        for (size_t i = 0; i < point.maps.size(); ++i) {
            tickets.push_back(spiller_.offload(point.maps[i].rawBytes(),
                                               point.zvc[i], i, spans, sums,
                                               tally));
        }
        for (size_t i = point.maps.size(); i-- > 0;) {
            spiller_.prefetch(tickets[i], point.maps[i].rawBytes(), spans,
                              sums, tally);
        }
        tally.addStep(sums, spans.endStep());
    }

    SimFigures simulate(Spans &spans, double &host_seconds,
                        Tally &tally) override
    {
        std::vector<double> ratios = spiller_.warmupRatios();
        ratios.resize(desc_.layers.size(), 1.0);
        return stepbench::simulate(desc_, desc_.default_batch, ratios,
                                   spiller_.faults(), mutation_, spans, host_seconds, tally);
    }

    void finish(Tally &tally) override
    {
        if (spiller_.faults() == nullptr)
            return;
        RetryTally &retries = spiller_.retries();
        if (mutation_ == Mutation::SkewRetries)
            retries.addFailures(
                static_cast<uint64_t>(std::ceil(2.0 * retries.allowance())));
        if (!retries.withinBound()) {
            tally.wrong("link retries " + std::to_string(retries.failures()) +
                        " over " + std::to_string(retries.crossings()) +
                        " crossings, expected " +
                        std::to_string(retries.expectedFailures()) +
                        " +/- " + std::to_string(retries.allowance()));
        }
    }

  private:
    static constexpr int64_t kBatch = 1;

    struct Point {
        std::vector<Tensor4D> maps;
        std::vector<uint64_t> zvc; ///< independent ZVC count per map
    };

    Spiller &spiller_;
    Mutation mutation_;
    NetworkDesc desc_;
    std::vector<Point> points_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "train_alexnet", "spill_vgg", "spill_faulty"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, Spiller &spiller,
             Mutation mutation)
{
    if (name == "train_alexnet")
        return std::make_unique<TrainAlexNet>(seed, spiller, mutation);
    if (name == "spill_vgg" || name == "spill_faulty")
        return std::make_unique<SpillVgg>(seed, spiller, mutation);
    return nullptr;
}

sim::FaultConfig
faultConfigFor(const std::string &name, uint64_t seed)
{
    sim::FaultConfig config;
    if (name == "spill_faulty") {
        config.bit_flip_rate_per_byte = kFaultRate;
        config.seed = seed ^ 0x5EEDF00Dull;
    }
    return config;
}

} // namespace stepbench
