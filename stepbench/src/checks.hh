/**
 * @file
 * Output checks of the step benchmark that do not depend on the code
 * under test: a plain-loop ZVC size count, a byte-identity compare and
 * a statistical bound on sampled link retries. None of them calls into
 * the codec, the arena or the transfer engine.
 */

#ifndef STEPBENCH_CHECKS_HH
#define STEPBENCH_CHECKS_HH

#include <cstdint>
#include <span>

namespace stepbench {

/**
 * Store-raw-floored ZVC wire bytes of @p data cut into @p window_bytes
 * windows, counted directly from the source: per window, one 4-byte
 * mask per group of up to 32 whole 4-byte words, 4 bytes per non-zero
 * word, the sub-word tail stored as is, and never more than the
 * window's raw size.
 */
uint64_t zvcWireBytes(std::span<const uint8_t> data, uint64_t window_bytes);

/** True when @p a and @p b hold the same bytes. */
bool sameBytes(std::span<const uint8_t> a, std::span<const uint8_t> b);

/**
 * Observed link failures against the injector's per-crossing failure
 * probability. Each crossing fails independently with probability p,
 * so (failures - sum of p) over the crossings made is a martingale with
 * variance sum of p(1-p); a run passes when it stays within
 * kSigmas standard deviations (plus one event of slack).
 */
class RetryTally
{
  public:
    static constexpr double kSigmas = 5.0;

    /** One shard that crossed @p attempts times before landing, each
     *  crossing failing with probability @p p. */
    void addShard(double p, uint32_t attempts);

    /** Count @p extra failures that no crossing accounts for. */
    void addFailures(uint64_t extra) { failures_ += extra; }

    uint64_t crossings() const { return crossings_; }
    uint64_t failures() const { return failures_; }
    double expectedFailures() const { return expected_; }
    /** Largest |failures - expected| the bound accepts. */
    double allowance() const;
    bool withinBound() const;

  private:
    uint64_t crossings_ = 0;
    uint64_t failures_ = 0;
    double expected_ = 0.0;
    double variance_ = 0.0;
};

} // namespace stepbench

#endif // STEPBENCH_CHECKS_HH
