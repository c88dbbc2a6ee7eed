/**
 * @file
 * Binary encoding for durable market state.
 *
 * Snapshots and journal records are byte strings produced by ByteWriter
 * and consumed by ByteReader. The format is deliberately primitive:
 * fixed-width little-endian integers, doubles by IEEE-754 bit pattern,
 * and length-prefixed byte strings. No varints, no alignment — the
 * encoding of a value sequence is the same on every platform
 * (common/byte_order.hh), which is what makes snapshot bytes
 * comparable across runs (the recovery-equivalence oracle diffs them
 * directly).
 *
 * Readers treat the input as untrusted (a crashed process may have
 * left arbitrary bytes): every read is bounds-checked, length prefixes
 * are capped by the bytes actually present, and the first failure is
 * latched as a Status the caller checks once at the end — the
 * trust-boundary pattern from common/status.hh applied to binary
 * input.
 */

#ifndef AMDAHL_ROBUSTNESS_DURABILITY_CODEC_HH
#define AMDAHL_ROBUSTNESS_DURABILITY_CODEC_HH

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/byte_order.hh"
#include "common/status.hh"

namespace amdahl::durability {

/**
 * Appends primitive values to a byte buffer (little-endian). Each
 * fixed-width value is one word-sized append.
 */
class ByteWriter
{
  public:
    /** Fold one unsigned 32-bit value. */
    void
    putU32(std::uint32_t v)
    {
        char b[4]{};
        storeLe32(b, v);
        buf.append(b, sizeof b);
    }

    /** Fold one unsigned 64-bit value. */
    void
    putU64(std::uint64_t v)
    {
        char b[8]{};
        storeLe64(b, v);
        buf.append(b, sizeof b);
    }

    /** Fold a double by bit pattern (exact round trip). */
    void putF64(double v) { putU64(std::bit_cast<std::uint64_t>(v)); }

    /** Fold a byte string with a u64 length prefix. */
    void putString(std::string_view s);

    /** Fold a vector of doubles with a u64 count prefix. */
    void putF64Vector(const std::vector<double> &v);

    /** Fold a vector of u64 with a u64 count prefix. */
    void putU64Vector(const std::vector<std::uint64_t> &v);

    /** Reserve room for @p bytes more bytes (no effect on content). */
    void reserve(std::size_t bytes) { buf.reserve(buf.size() + bytes); }

    /** Drop the accumulated bytes, keeping the buffer's capacity. */
    void clear() { buf.clear(); }

    /** @return The accumulated bytes. */
    const std::string &bytes() const { return buf; }

    /** @return The accumulated bytes, moved out. */
    std::string take() { return std::move(buf); }

  private:
    std::string buf;
};

/**
 * Bounds-checked reader over an encoded byte string.
 *
 * On underrun or an implausible length prefix the reader latches a
 * ParseError and every subsequent read returns a zero value; callers
 * check status() once after decoding instead of after every field.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view data) : in(data) {}

    /** @return The next u32, or 0 after a latched failure. */
    std::uint32_t
    readU32()
    {
        if (!need(4, "u32"))
            return 0;
        const std::uint32_t v = loadLe32(in.data() + pos);
        pos += 4;
        return v;
    }

    /** @return The next u64, or 0 after a latched failure. */
    std::uint64_t
    readU64()
    {
        if (!need(8, "u64"))
            return 0;
        const std::uint64_t v = loadLe64(in.data() + pos);
        pos += 8;
        return v;
    }

    /** @return The next double, or 0.0 after a latched failure. */
    double readF64() { return std::bit_cast<double>(readU64()); }

    /** @return The next length-prefixed byte string, or "" on failure. */
    std::string readString();

    /** @return The next count-prefixed double vector ({} on failure). */
    std::vector<double> readF64Vector();

    /** @return The next count-prefixed u64 vector ({} on failure). */
    std::vector<std::uint64_t> readU64Vector();

    /** @return Bytes not yet consumed. */
    std::size_t remaining() const { return in.size() - pos; }

    /** @return true when no read has failed so far. */
    bool ok() const { return st.isOk(); }

    /** @return The latched first failure, or Status::ok(). */
    const Status &status() const { return st; }

    /**
     * Require that every input byte was consumed; trailing garbage
     * latches a ParseError (a well-formed record decodes exactly).
     */
    void expectEnd();

    /**
     * Latch a ParseError for a field that was read but holds a value
     * no encoder writes (e.g. out of its type's range); no effect
     * after an earlier failure.
     */
    void reject(std::string_view what);

  private:
    /** @return true when @p n more bytes may be consumed. */
    bool
    need(std::size_t n, const char *what)
    {
        if (st.isOk() && in.size() - pos >= n)
            return true;
        return underrun(n, what);
    }

    /** Latch the first underrun as a ParseError; @return false. */
    bool underrun(std::size_t n, const char *what);

    std::string_view in;
    std::size_t pos = 0;
    Status st = Status::ok();
};

} // namespace amdahl::durability

#endif // AMDAHL_ROBUSTNESS_DURABILITY_CODEC_HH
