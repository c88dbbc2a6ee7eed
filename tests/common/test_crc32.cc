/**
 * @file
 * CRC-32 (zlib polynomial): known answers, the slicing-by-8 fast path
 * against a byte-at-a-time reference, and crc32Combine against the CRC
 * of the concatenation.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32.hh"
#include "common/random.hh"

namespace amdahl {
namespace {

/** The textbook byte-at-a-time CRC, kept independent of crc32.cc. */
std::uint32_t
referenceCrc(std::uint32_t seed, const unsigned char *p, std::size_t n)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char>
randomBytes(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<unsigned char> bytes(n);
    for (auto &b : bytes)
        b = static_cast<unsigned char>(rng.uniformInt(0, 255));
    return bytes;
}

TEST(Crc32, KnownAnswers)
{
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
    EXPECT_EQ(crc32Update(0, nullptr, 0), 0u);
    EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
              0x414FA339u);
}

TEST(Crc32, SlicingMatchesBytewiseReferenceAtEveryLengthAndOffset)
{
    // Lengths 0..1100 cover every tail length of the 8-byte stride many
    // times over; offsets 0..7 cover every alignment of the word loads.
    const std::vector<unsigned char> buf = randomBytes(0xC0FFEE, 1100 + 8);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        std::uint32_t chained = 0;
        for (std::size_t len = 0; len <= 1100; ++len) {
            const unsigned char *p = buf.data() + offset;
            ASSERT_EQ(crc32Update(0, p, len), referenceCrc(0, p, len))
                << "offset " << offset << ", length " << len;
            // Chained seeds: each CRC continues from the previous one.
            const std::uint32_t next = crc32Update(chained, p, len);
            ASSERT_EQ(next, referenceCrc(chained, p, len))
                << "offset " << offset << ", length " << len
                << ", seed " << chained;
            chained = next;
        }
    }
}

TEST(Crc32, UpdateContinuesAcrossSplits)
{
    const std::vector<unsigned char> buf = randomBytes(11, 4096);
    const std::uint32_t whole = crc32Update(0, buf.data(), buf.size());
    for (std::size_t cut : {0u, 1u, 7u, 8u, 9u, 1000u, 4095u, 4096u}) {
        const std::uint32_t head = crc32Update(0, buf.data(), cut);
        EXPECT_EQ(crc32Update(head, buf.data() + cut, buf.size() - cut),
                  whole)
            << "cut at " << cut;
    }
}

TEST(Crc32, CombineEqualsTheCrcOfTheConcatenation)
{
    // Random splits of buffers up to 3 MB, empty halves included.
    const std::vector<unsigned char> buf = randomBytes(2024, 3u << 20);
    Rng rng(99);
    std::vector<std::pair<std::size_t, std::size_t>> cases = {
        {0, 0}, {0, 1}, {1, 0}, {0, 100}, {100, 0},
        {1, 1}, {3u << 20, 0}, {0, 3u << 20}, {1u << 20, 2u << 20}};
    for (int i = 0; i < 40; ++i) {
        const auto total = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(buf.size())));
        const auto cut = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(total)));
        cases.emplace_back(cut, total - cut);
    }
    for (const auto &[lenA, lenB] : cases) {
        const std::uint32_t crcA = crc32Update(0, buf.data(), lenA);
        const std::uint32_t crcB = crc32Update(0, buf.data() + lenA, lenB);
        const std::uint32_t whole = crc32Update(0, buf.data(), lenA + lenB);
        EXPECT_EQ(crc32Combine(crcA, crcB, lenB), whole)
            << "A " << lenA << " bytes, B " << lenB << " bytes";
    }
}

TEST(Crc32, CombineJoinsThreeParts)
{
    // The state digest's shape: head | long middle | tail.
    const std::vector<unsigned char> buf = randomBytes(5, 300000);
    const std::size_t a = 123, b = 250000;
    const unsigned char *p = buf.data();
    const std::uint32_t head = crc32Update(0, p, a);
    const std::uint32_t middle = crc32Update(0, p + a, b);
    const std::uint32_t joined =
        crc32Update(crc32Combine(head, middle, b), p + a + b,
                    buf.size() - a - b);
    EXPECT_EQ(joined, crc32Update(0, p, buf.size()));
}

} // namespace
} // namespace amdahl
