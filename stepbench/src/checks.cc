#include "checks.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace stepbench {

uint64_t
zvcWireBytes(std::span<const uint8_t> data, uint64_t window_bytes)
{
    constexpr uint64_t kWord = 4;
    constexpr uint64_t kMaskWords = 32;
    uint64_t total = 0;
    for (uint64_t begin = 0; begin < data.size(); begin += window_bytes) {
        const uint64_t raw = std::min<uint64_t>(window_bytes,
                                                data.size() - begin);
        const uint64_t words = raw / kWord;
        uint64_t nonzero = 0;
        for (uint64_t w = 0; w < words; ++w) {
            uint32_t word;
            std::memcpy(&word, data.data() + begin + w * kWord, kWord);
            nonzero += word != 0;
        }
        const uint64_t masks = (words + kMaskWords - 1) / kMaskWords;
        const uint64_t zvc = masks * 4 + nonzero * kWord + raw % kWord;
        total += std::min(raw, zvc);
    }
    return total;
}

bool
sameBytes(std::span<const uint8_t> a, std::span<const uint8_t> b)
{
    return a.size() == b.size() &&
        (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

void
RetryTally::addShard(double p, uint32_t attempts)
{
    crossings_ += attempts;
    failures_ += attempts - 1;
    expected_ += attempts * p;
    variance_ += attempts * p * (1.0 - p);
}

double
RetryTally::allowance() const
{
    return kSigmas * std::sqrt(variance_) + 1.0;
}

bool
RetryTally::withinBound() const
{
    return std::fabs(static_cast<double>(failures_) - expected_) <=
        allowance();
}

} // namespace stepbench
