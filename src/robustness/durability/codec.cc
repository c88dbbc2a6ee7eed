#include "robustness/durability/codec.hh"

namespace amdahl::durability {

void
ByteWriter::putString(std::string_view s)
{
    putU64(s.size());
    buf.append(s.data(), s.size());
}

namespace {

/** Append @p v's elements as little-endian 8-byte words. */
template <typename T>
void
appendWords(std::string &buf, const std::vector<T> &v)
{
    static_assert(sizeof(T) == 8);
    if constexpr (std::endian::native == std::endian::little) {
        // The in-memory representation already is the encoding.
        buf.append(reinterpret_cast<const char *>(v.data()),
                   v.size() * sizeof(T));
    } else {
        for (const T x : v) {
            char b[8]{};
            storeLe64(b, std::bit_cast<std::uint64_t>(x));
            buf.append(b, sizeof b);
        }
    }
}

} // namespace

void
ByteWriter::putF64Vector(const std::vector<double> &v)
{
    putU64(v.size());
    appendWords(buf, v);
}

void
ByteWriter::putU64Vector(const std::vector<std::uint64_t> &v)
{
    putU64(v.size());
    appendWords(buf, v);
}

bool
ByteReader::underrun(std::size_t n, const char *what)
{
    if (!st.isOk())
        return false;
    st = Status::error(ErrorKind::ParseError, 0, "truncated record: ",
                       what, " needs ", n, " bytes, ", in.size() - pos,
                       " remain at offset ", pos);
    return false;
}

std::string
ByteReader::readString()
{
    const std::uint64_t len = readU64();
    // The length prefix is untrusted: cap it by the bytes actually
    // present before allocating.
    if (st.isOk() && len > in.size() - pos) {
        st = Status::error(ErrorKind::ParseError, 0, "string length ",
                           len, " exceeds the ", in.size() - pos,
                           " bytes remaining at offset ", pos);
    }
    if (!need(static_cast<std::size_t>(len), "string body"))
        return {};
    std::string s(in.substr(pos, static_cast<std::size_t>(len)));
    pos += static_cast<std::size_t>(len);
    return s;
}

std::vector<double>
ByteReader::readF64Vector()
{
    const std::uint64_t count = readU64();
    if (st.isOk() && count > (in.size() - pos) / 8) {
        st = Status::error(ErrorKind::ParseError, 0, "vector count ",
                           count, " exceeds the ", (in.size() - pos) / 8,
                           " doubles remaining at offset ", pos);
    }
    std::vector<double> v;
    if (!st.isOk())
        return v;
    v.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count && st.isOk(); ++i)
        v.push_back(readF64());
    return v;
}

std::vector<std::uint64_t>
ByteReader::readU64Vector()
{
    const std::uint64_t count = readU64();
    if (st.isOk() && count > (in.size() - pos) / 8) {
        st = Status::error(ErrorKind::ParseError, 0, "vector count ",
                           count, " exceeds the ", (in.size() - pos) / 8,
                           " words remaining at offset ", pos);
    }
    std::vector<std::uint64_t> v;
    if (!st.isOk())
        return v;
    v.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count && st.isOk(); ++i)
        v.push_back(readU64());
    return v;
}

void
ByteReader::expectEnd()
{
    if (st.isOk() && pos != in.size()) {
        st = Status::error(ErrorKind::ParseError, 0, remaining(),
                           " unexpected trailing bytes after a "
                           "complete record");
    }
}

void
ByteReader::reject(std::string_view what)
{
    if (st.isOk()) {
        st = Status::error(ErrorKind::ParseError, 0, "invalid ", what,
                           " before offset ", pos);
    }
}

} // namespace amdahl::durability
