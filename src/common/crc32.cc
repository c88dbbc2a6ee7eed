#include "common/crc32.hh"

#include <array>

#include "common/byte_order.hh"

namespace amdahl {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u; // reflected 0x04C11DB7

using Table = std::array<std::uint32_t, 256>;

/**
 * Slicing-by-8 tables for the reflected polynomial. Row 0 is the
 * classic byte-at-a-time table; row k advances a byte through k more
 * zero bytes, so one step folds eight input bytes with eight
 * independent lookups instead of a serial chain of eight.
 */
constexpr std::array<Table, 8>
makeTables()
{
    std::array<Table, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
    return t;
}

constexpr auto kTables = makeTables();

/** @return a(x) * b(x) modulo the CRC polynomial (reflected bits). */
constexpr std::uint32_t
multModP(std::uint32_t a, std::uint32_t b)
{
    std::uint32_t m = 1u << 31;
    std::uint32_t p = 0;
    for (;;) {
        if (a & m) {
            p ^= b;
            if ((a & (m - 1)) == 0)
                break;
        }
        m >>= 1;
        b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
    }
    return p;
}

/** kX2n[k] = x^(2^k) modulo the CRC polynomial. */
constexpr std::array<std::uint32_t, 32>
makeX2n()
{
    std::array<std::uint32_t, 32> t{};
    std::uint32_t p = 1u << 30; // x^1
    t[0] = p;
    for (std::size_t n = 1; n < 32; ++n)
        t[n] = p = multModP(p, p);
    return t;
}

constexpr auto kX2n = makeX2n();

/** @return x^(n * 2^k) modulo the CRC polynomial. */
std::uint32_t
x2nModP(std::uint64_t n, unsigned k)
{
    std::uint32_t p = 1u << 31; // x^0
    while (n) {
        if (n & 1)
            p = multModP(kX2n[k & 31], p);
        n >>= 1;
        ++k;
    }
    return p;
}

} // namespace

std::uint32_t
crc32Update(std::uint32_t seed, const void *data, std::size_t size)
{
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    const auto *p = static_cast<const unsigned char *>(data);
    for (; size >= 8; p += 8, size -= 8) {
        const std::uint32_t lo = loadLe32(p) ^ c;
        const std::uint32_t hi = loadLe32(p + 4);
        c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
    for (; size > 0; ++p, --size)
        c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::uint32_t
crc32Combine(std::uint32_t crcA, std::uint32_t crcB, std::uint64_t lenB)
{
    // Appending lenB bytes multiplies A's remainder by x^(8 lenB); the
    // CRC's pre- and post-conditioning cancel out of the sum.
    return multModP(x2nModP(lenB, 3), crcA) ^ crcB;
}

} // namespace amdahl
