/**
 * @file
 * Little-endian loads and stores at any alignment.
 *
 * Every on-disk and on-wire format in this repository is fixed-width
 * little-endian. These helpers move one word at a time: on a
 * little-endian host a load or store is a single unaligned memory
 * access (std::memcpy, which compilers lower to one mov); elsewhere
 * they fall back to byte shifts, so the bytes are the same on every
 * platform.
 */

#ifndef AMDAHL_COMMON_BYTE_ORDER_HH
#define AMDAHL_COMMON_BYTE_ORDER_HH

#include <bit>
#include <cstdint>
#include <cstring>

namespace amdahl {

namespace detail {

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

template <typename T>
inline T
loadLe(const void *p)
{
    T v = 0;
    if constexpr (kLittleEndian) {
        std::memcpy(&v, p, sizeof v);
    } else {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < sizeof v; ++i)
            v |= static_cast<T>(b[i]) << (8 * i);
    }
    return v;
}

template <typename T>
inline void
storeLe(void *p, T v)
{
    if constexpr (kLittleEndian) {
        std::memcpy(p, &v, sizeof v);
    } else {
        auto *b = static_cast<unsigned char *>(p);
        for (std::size_t i = 0; i < sizeof v; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
    }
}

} // namespace detail

/** @return The little-endian u32 stored at @p p. */
inline std::uint32_t
loadLe32(const void *p)
{
    return detail::loadLe<std::uint32_t>(p);
}

/** @return The little-endian u64 stored at @p p. */
inline std::uint64_t
loadLe64(const void *p)
{
    return detail::loadLe<std::uint64_t>(p);
}

/** Store @p v at @p p as 4 little-endian bytes. */
inline void
storeLe32(void *p, std::uint32_t v)
{
    detail::storeLe(p, v);
}

/** Store @p v at @p p as 8 little-endian bytes. */
inline void
storeLe64(void *p, std::uint64_t v)
{
    detail::storeLe(p, v);
}

} // namespace amdahl

#endif // AMDAHL_COMMON_BYTE_ORDER_HH
