#include "net/message.hh"

#include <bit>

#include "common/byte_order.hh"
#include "common/check.hh"
#include "common/crc32.hh"

namespace amdahl::net {
namespace {

/**
 * Wire format (all integers little-endian):
 *
 *   u32 magic 'AMNT'   u8 kind   u32 src   u32 dst
 *   u64 seq   u32 attempt   u32 payloadSize   u32 payloadCrc
 *   payload bytes...
 *
 * Bid payload:   u32 shard, u64 round, u64 count,
 *                count * { u32 server, u64 block, f64 partial }
 * Price payload: u64 round, u64 count, count * f64
 */
constexpr std::uint32_t kMagic = 0x544e4d41; // "AMNT"

/** Header bytes; the payload CRC is its last field. */
constexpr std::size_t kHeaderBytes = 4 + 1 + 4 + 4 + 8 + 4 + 4 + 4;
constexpr std::size_t kCrcOffset = kHeaderBytes - 4;

/** Bytes of one bid partial: u32 server, u64 block, f64 partial. */
constexpr std::size_t kPartialBytes = 4 + 8 + 8;

/** Sequential little-endian stores into a presized buffer. */
class Writer
{
  public:
    explicit Writer(char *out) : p_(out) {}

    void
    putU8(std::uint8_t v)
    {
        *p_++ = static_cast<char>(v);
    }

    void
    putU32(std::uint32_t v)
    {
        storeLe32(p_, v);
        p_ += 4;
    }

    void
    putU64(std::uint64_t v)
    {
        storeLe64(p_, v);
        p_ += 8;
    }

    void putF64(double v) { putU64(std::bit_cast<std::uint64_t>(v)); }

    [[nodiscard]] const char *position() const { return p_; }

  private:
    char *p_;
};

class Reader
{
  public:
    explicit Reader(std::string_view bytes) : bytes_(bytes) {}

    bool
    readU8(std::uint8_t &v)
    {
        if (!have(1))
            return false;
        v = static_cast<std::uint8_t>(bytes_[pos_]);
        ++pos_;
        return true;
    }

    bool
    readU32(std::uint32_t &v)
    {
        if (!have(4))
            return false;
        v = loadLe32(bytes_.data() + pos_);
        pos_ += 4;
        return true;
    }

    bool
    readU64(std::uint64_t &v)
    {
        if (!have(8))
            return false;
        v = loadLe64(bytes_.data() + pos_);
        pos_ += 8;
        return true;
    }

    bool
    readF64(double &v)
    {
        std::uint64_t bits = 0;
        if (!readU64(bits))
            return false;
        v = std::bit_cast<double>(bits);
        return true;
    }

    [[nodiscard]] bool have(std::size_t n) const
    {
        return bytes_.size() - pos_ >= n;
    }

    [[nodiscard]] bool atEnd() const { return pos_ == bytes_.size(); }

    [[nodiscard]] std::string_view
    rest() const
    {
        return bytes_.substr(pos_);
    }

  private:
    std::string_view bytes_;
    std::size_t pos_ = 0;
};

Status
parseError(const char *what)
{
    return Status::error(ErrorKind::ParseError, 0, "net message: ", what);
}

/** @return The payload size of @p msg in bytes. */
std::size_t
payloadBytes(const Message &msg)
{
    if (msg.kind == MsgKind::Bid)
        return 4 + 8 + 8 + kPartialBytes * msg.bid.partials.size();
    return 8 + 8 + 8 * msg.price.prices.size();
}

} // namespace

const char *
toString(MsgKind kind)
{
    return kind == MsgKind::Bid ? "bid" : "price";
}

std::string
encodeMessage(const Message &msg)
{
    // Header and payload go into one exactly-sized buffer; the payload
    // CRC is patched into the header once the payload is written.
    const std::size_t payloadSize = payloadBytes(msg);
    std::string wire(kHeaderBytes + payloadSize, '\0');
    Writer out(wire.data());
    out.putU32(kMagic);
    out.putU8(static_cast<std::uint8_t>(msg.kind));
    out.putU32(msg.src);
    out.putU32(msg.dst);
    out.putU64(msg.seq);
    out.putU32(msg.attempt);
    out.putU32(static_cast<std::uint32_t>(payloadSize));
    out.putU32(0); // payload CRC, patched below
    if (msg.kind == MsgKind::Bid) {
        out.putU32(msg.bid.shard);
        out.putU64(msg.bid.round);
        out.putU64(msg.bid.partials.size());
        for (const BlockPartial &p : msg.bid.partials) {
            out.putU32(p.server);
            out.putU64(p.block);
            out.putF64(p.partial);
        }
    } else {
        out.putU64(msg.price.round);
        out.putU64(msg.price.prices.size());
        for (const double p : msg.price.prices)
            out.putF64(p);
    }
    AMDAHL_ASSERT(out.position() == wire.data() + wire.size(),
                  "payloadBytes is out of step with the frame layout");
    storeLe32(wire.data() + kCrcOffset,
              crc32(std::string_view(wire).substr(kHeaderBytes)));
    return wire;
}

Result<Message>
decodeMessage(std::string_view wire)
{
    Reader in(wire);
    std::uint32_t magic = 0;
    if (!in.readU32(magic))
        return parseError("truncated header");
    if (magic != kMagic)
        return Status::error(ErrorKind::SemanticError, 0,
                             "net message: bad magic");
    Message msg;
    std::uint8_t kind = 0;
    if (!in.readU8(kind))
        return parseError("truncated header");
    if (kind != static_cast<std::uint8_t>(MsgKind::Bid) &&
        kind != static_cast<std::uint8_t>(MsgKind::Price))
        return parseError("unknown kind");
    msg.kind = static_cast<MsgKind>(kind);
    std::uint32_t payloadSize = 0;
    std::uint32_t payloadCrc = 0;
    if (!in.readU32(msg.src) || !in.readU32(msg.dst) ||
        !in.readU64(msg.seq) || !in.readU32(msg.attempt) ||
        !in.readU32(payloadSize) || !in.readU32(payloadCrc))
        return parseError("truncated header");
    const std::string_view payload = in.rest();
    if (payload.size() != payloadSize)
        return parseError("payload length mismatch");
    if (crc32(payload) != payloadCrc)
        return Status::error(ErrorKind::SemanticError, 0,
                             "net message: payload CRC mismatch");

    Reader body(payload);
    if (msg.kind == MsgKind::Bid) {
        std::uint64_t count = 0;
        if (!body.readU32(msg.bid.shard) || !body.readU64(msg.bid.round) ||
            !body.readU64(count))
            return parseError("truncated bid payload");
        if (count > payload.size() / kPartialBytes)
            return parseError("truncated bid payload");
        msg.bid.partials.resize(static_cast<std::size_t>(count));
        for (BlockPartial &p : msg.bid.partials) {
            if (!body.readU32(p.server) || !body.readU64(p.block) ||
                !body.readF64(p.partial))
                return parseError("truncated bid payload");
        }
    } else {
        std::uint64_t count = 0;
        if (!body.readU64(msg.price.round) || !body.readU64(count))
            return parseError("truncated price payload");
        if (count > payload.size() / 8)
            return parseError("truncated price payload");
        msg.price.prices.resize(static_cast<std::size_t>(count));
        for (double &p : msg.price.prices) {
            if (!body.readF64(p))
                return parseError("truncated price payload");
        }
    }
    if (!body.atEnd())
        return parseError("trailing payload bytes");
    return msg;
}

} // namespace amdahl::net
