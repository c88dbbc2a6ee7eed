/**
 * @file
 * Deterministic mutational fuzzing of the untrusted-input decoders.
 *
 * Seeds are freshly encoded valid inputs (wire frames, journal
 * entries, snapshot envelopes, online states, journal and snapshot
 * files from a real durable run, market files, profile CSVs and plain
 * CSV tables) plus the hand-made corruption corpus in
 * tests/data/malformed/. Each iteration draws its
 * mutations — bit flips, byte sets, truncations, splices of two
 * seeds, and edits of 4- or 8-byte length-like fields — from its own
 * counter-based substream (substreamSeed), so every input is
 * reproducible from (target, iteration) alone. Where a format carries
 * a CRC, half the iterations recompute it after mutating, so the
 * mutation reaches the payload decoder instead of stopping at the
 * checksum.
 *
 * The contract: every input either fails with a Status, or decodes
 * and re-encodes to exactly the bytes it came from. The text formats
 * admit comments, spacing, quoting and number spellings their writers
 * never emit, so for them the bytes are the writer's canonical text:
 * an accepted input must decode to the value that text decodes to,
 * and the text must re-encode to itself. A crash, sanitizer report or
 * non-canonical accept fails the test. The budget is fixed (a few
 * seconds in a debug or sanitizer build).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/amdahl_bidding_policy.hh"
#include "common/byte_order.hh"
#include "common/crc32.hh"
#include "common/csv.hh"
#include "common/random.hh"
#include "core/market_io.hh"
#include "eval/online.hh"
#include "net/message.hh"
#include "profiling/profile_io.hh"
#include "robustness/durability/codec.hh"
#include "robustness/durability/durable_store.hh"
#include "robustness/durability/journal.hh"
#include "robustness/durability/posix_io.hh"
#include "robustness/durability/snapshot.hh"

namespace amdahl {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFuzzSeed = 0xF022'5EEDULL;

/** Header bytes of a wire frame; its payload CRC is the last field. */
constexpr std::size_t kFrameHeader = 33;
/** "AMSS" | u32 version | u64 epoch | u64 length | u32 CRC. */
constexpr std::size_t kSnapshotHeader = 28;

enum Target : std::uint64_t {
    kNetFrame = 1,
    kJournalEntry,
    kEnvelope,
    kOnlineState,
    kJournalFile,
    kSnapshotFile,
    kMarketText,
    kProfileCsv,
    kCsvTable,
};

/** Values a mutated length or count field is set to. */
std::uint64_t
interestingWord(Rng &rng, std::uint64_t current, std::size_t size)
{
    switch (rng.uniformInt(0, 9)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return current + 1;
      case 3: return current - 1;
      case 4: return size;
      case 5: return size / 2;
      case 6: return 0xFFFFFFFFULL;
      case 7: return 0x80000000ULL;
      case 8: return ~0ULL;
      default: return 1ULL << 63;
    }
}

/** One random edit of @p out; @p seeds supplies splice partners. */
void
mutateOnce(Rng &rng, std::string &out,
           const std::vector<std::string> &seeds)
{
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n)));
    };
    switch (rng.uniformInt(0, 4)) {
      case 0: // bit flip
        if (!out.empty()) {
            const std::size_t at = pick(out.size() - 1);
            out[at] = static_cast<char>(
                out[at] ^ (1 << rng.uniformInt(0, 7)));
        }
        break;
      case 1: { // byte set
        if (out.empty())
            break;
        static constexpr unsigned char kBytes[] = {0x00, 0xFF, 0x7F,
                                                   0x80, 0x01};
        const std::size_t at = pick(out.size() - 1);
        const auto which = rng.uniformInt(0, 5);
        out[at] = static_cast<char>(
            which < 5 ? kBytes[which] : rng.uniformInt(0, 255));
        break;
      }
      case 2: // truncation
        out.resize(pick(out.size()));
        break;
      case 3: { // splice: a prefix of this input, a suffix of another
        const std::string &other = seeds[pick(seeds.size() - 1)];
        out = out.substr(0, pick(out.size())) +
              other.substr(pick(other.size()));
        break;
      }
      default: { // length-field edit
        const std::size_t width = rng.uniformInt(0, 1) ? 8 : 4;
        if (out.size() < width)
            break;
        const std::size_t at = pick(out.size() - width);
        if (width == 8) {
            storeLe64(out.data() + at,
                      interestingWord(rng, loadLe64(out.data() + at),
                                      out.size()));
        } else {
            storeLe32(out.data() + at,
                      static_cast<std::uint32_t>(interestingWord(
                          rng, loadLe32(out.data() + at), out.size())));
        }
        break;
      }
    }
}

/**
 * @return Iteration @p i's input for @p target: a seed with one to
 * three edits, and (when @p fixCrc is given) a coin flip in *fixCrc
 * asking the caller to repair the format's checksum.
 */
std::string
mutant(Target target, std::uint64_t i,
       const std::vector<std::string> &seeds, bool *fixCrc = nullptr)
{
    Rng rng(substreamSeed(kFuzzSeed, target, i));
    std::string out = seeds[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(seeds.size()) - 1))];
    const auto edits = rng.uniformInt(1, 3);
    for (std::int64_t e = 0; e < edits; ++e)
        mutateOnce(rng, out, seeds);
    if (fixCrc)
        *fixCrc = rng.uniformInt(0, 1) == 1;
    return out;
}

/** Accept/reject tallies: a fuzz run must exercise both outcomes. */
struct Tally
{
    int accepted = 0;
    int rejected = 0;

    void
    expectBoth(const char *target) const
    {
        EXPECT_GT(accepted, 0) << target << ": no mutant decoded";
        EXPECT_GT(rejected, 0) << target << ": no mutant was rejected";
    }
};

// ---------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------

eval::OnlineOptions
fuzzScenario()
{
    eval::OnlineOptions opts;
    opts.seed = 515;
    opts.users = 5;
    opts.servers = 3;
    opts.coresPerServer = 8;
    opts.horizonSeconds = opts.epochSeconds * 8;
    opts.arrivalsPerServerEpoch = 1.0;
    opts.admission.enabled = true;
    opts.admission.maxLoadFactor = 1.0;
    opts.admission.maxQueueLength = 3;
    return opts;
}

/** Encoded states of fuzzScenario() after 0, 3 and 8 epochs. */
std::vector<std::string>
stateSeeds()
{
    eval::CharacterizationCache cache;
    const eval::OnlineOptions opts = fuzzScenario();
    eval::OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());
    eval::OnlineRunState state = sim.initState(ab);
    std::vector<std::string> seeds{eval::encodeOnlineState(state, opts)};
    while (state.epoch < sim.epochCount()) {
        sim.runEpoch(state, ab, eval::FractionSource::Estimated,
                     injector);
        if (state.epoch == 3 || state.epoch == sim.epochCount())
            seeds.push_back(eval::encodeOnlineState(state, opts));
    }
    return seeds;
}

/** A fresh directory private to the running test (ctest runs tests
 *  as parallel processes). */
fs::path
scratchDir(const char *name)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const fs::path dir = fs::temp_directory_path() /
                         "amdahl_decoder_fuzz" / info->name() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/**
 * Journal and snapshot files of a real durable run: the journal is
 * captured by a run that snapshots only at the end (so it holds
 * journaled epochs until then), the snapshots by one that snapshots
 * every two epochs.
 */
struct FileSeeds
{
    std::vector<std::string> journals;
    std::vector<std::string> snapshots;
};

std::string
readAll(const fs::path &path)
{
    auto bytes = durability::readFileBytes(path.string());
    EXPECT_TRUE(bytes.ok()) << path << ": " << bytes.status().toString();
    return bytes.ok() ? bytes.take() : std::string();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    auto opened = durability::PosixFile::createTruncate(path);
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    auto file = opened.take();
    ASSERT_TRUE(file.writeAll(bytes.data(), bytes.size()).isOk());
}

FileSeeds
fileSeeds()
{
    FileSeeds seeds;
    eval::CharacterizationCache cache;
    eval::OnlineSimulator sim(cache, fuzzScenario());
    const alloc::AmdahlBiddingPolicy ab;

    const fs::path dir = scratchDir("seeds");
    durability::DurabilityOptions d;
    d.stateDir = dir.string();
    d.snapshotEvery = 2;
    d.keepSnapshots = 2;
    auto opened = durability::DurableStateStore::open(d);
    EXPECT_TRUE(opened.ok());
    auto store = opened.take();
    EXPECT_TRUE(
        sim.runDurable(ab, eval::FractionSource::Estimated, store).ok());
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".amss")
            seeds.snapshots.push_back(readAll(entry.path()));
    }

    // A journal with every epoch in it: drive the commit protocol by
    // hand with no snapshot cadence.
    const fs::path jdir = scratchDir("journal-seed");
    d.stateDir = jdir.string();
    d.snapshotEvery = 0;
    auto jopened = durability::DurableStateStore::open(d);
    EXPECT_TRUE(jopened.ok());
    auto jstore = jopened.take();
    EXPECT_TRUE(jstore.beginFresh().isOk());
    for (std::uint64_t e = 1; e <= 6; ++e) {
        durability::JournalEntry entry;
        entry.epoch = e;
        entry.eventCrc = static_cast<std::uint32_t>(mix64(e));
        entry.traceBytes = 100 * e;
        entry.traceSeq = 3 * e;
        EXPECT_TRUE(jstore.commitEpoch(entry, [] { return std::string(); })
                        .isOk());
    }
    seeds.journals.push_back(readAll(jdir / "journal.amjl"));

    const fs::path corpus =
        fs::path(AMDAHL_TEST_DATA_DIR) / "malformed" / "durability";
    for (const auto &entry : fs::directory_iterator(corpus)) {
        if (entry.path().extension() == ".amjl")
            seeds.journals.push_back(readAll(entry.path()));
        else if (entry.path().extension() == ".amss")
            seeds.snapshots.push_back(readAll(entry.path()));
    }
    EXPECT_GE(seeds.snapshots.size(), 3u);
    EXPECT_GE(seeds.journals.size(), 3u);
    return seeds;
}

// ---------------------------------------------------------------------
// Round-trip checks, shared by the in-memory and file targets
// ---------------------------------------------------------------------

void
checkEntry(std::string_view in, Tally &tally)
{
    auto entry = durability::DurableStateStore::decodeEntry(in);
    if (!entry.ok()) {
        ++tally.rejected;
        return;
    }
    ++tally.accepted;
    EXPECT_EQ(durability::DurableStateStore::encodeEntry(entry.value()),
              in);
}

void
checkState(std::string_view in, Tally &tally)
{
    const alloc::AmdahlBiddingPolicy ab;
    auto state = eval::decodeOnlineState(in, fuzzScenario(), ab.name());
    if (!state.ok()) {
        ++tally.rejected;
        return;
    }
    ++tally.accepted;
    EXPECT_EQ(eval::encodeOnlineState(state.value(), fuzzScenario()), in);
}

void
checkEnvelope(std::string_view in, Tally &tally, Tally *states)
{
    auto env = durability::decodeSnapshotEnvelope(in);
    if (!env.ok()) {
        ++tally.rejected;
        return;
    }
    ++tally.accepted;
    EXPECT_EQ(durability::encodeSnapshotEnvelope(env.value()), in);
    if (states)
        checkState(env.value().state, *states);
}

// ---------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------

TEST(DecoderFuzz, NetFramesRejectOrRoundTrip)
{
    std::vector<std::string> seeds;
    for (std::uint32_t n = 0; n < 4; ++n) {
        net::Message bid;
        bid.kind = net::MsgKind::Bid;
        bid.src = net::shardNode(n);
        bid.seq = 10 + n;
        bid.attempt = n;
        bid.bid.shard = n;
        bid.bid.round = 7 * n;
        for (std::uint32_t k = 0; k < 3 * n; ++k)
            bid.bid.partials.push_back({k, k / 2, 0.25 * k - 1.0});
        seeds.push_back(net::encodeMessage(bid));
        net::Message price;
        price.kind = net::MsgKind::Price;
        price.dst = net::shardNode(n);
        price.seq = n;
        price.price.round = 7 * n + 1;
        price.price.prices.assign(2 * n, 1.0 / (n + 1));
        seeds.push_back(net::encodeMessage(price));
    }

    Tally tally;
    for (std::uint64_t i = 0; i < 50000; ++i) {
        bool fix = false;
        std::string in = mutant(kNetFrame, i, seeds, &fix);
        if (fix && in.size() >= kFrameHeader) {
            const auto payload = std::string_view(in).substr(kFrameHeader);
            storeLe32(in.data() + kFrameHeader - 8,
                      static_cast<std::uint32_t>(payload.size()));
            storeLe32(in.data() + kFrameHeader - 4, crc32(payload));
        }
        auto msg = net::decodeMessage(in);
        if (!msg.ok()) {
            ++tally.rejected;
            continue;
        }
        ++tally.accepted;
        ASSERT_EQ(net::encodeMessage(msg.value()), in)
            << "iteration " << i;
    }
    tally.expectBoth("net frames");
}

TEST(DecoderFuzz, JournalEntriesRejectOrRoundTrip)
{
    std::vector<std::string> seeds;
    for (std::uint64_t e = 1; e < 5; ++e) {
        durability::JournalEntry entry;
        entry.epoch = e * e;
        entry.eventCrc = static_cast<std::uint32_t>(mix64(e));
        entry.traceBytes = mix64(e + 100) >> 20;
        entry.traceSeq = e * 31;
        seeds.push_back(durability::DurableStateStore::encodeEntry(entry));
    }
    Tally tally;
    for (std::uint64_t i = 0; i < 20000; ++i)
        checkEntry(mutant(kJournalEntry, i, seeds), tally);
    tally.expectBoth("journal entries");
}

TEST(DecoderFuzz, SnapshotEnvelopesRejectOrRoundTrip)
{
    std::vector<std::string> seeds;
    for (const std::string &state : stateSeeds()) {
        durability::OnlineSnapshotEnvelope env;
        env.completed = seeds.size() % 2 == 1;
        env.traceBytes = 4096 + seeds.size();
        env.traceSeq = 17 * seeds.size();
        env.state = state;
        seeds.push_back(durability::encodeSnapshotEnvelope(env));
    }
    Tally tally;
    for (std::uint64_t i = 0; i < 20000; ++i)
        checkEnvelope(mutant(kEnvelope, i, seeds), tally, nullptr);
    tally.expectBoth("snapshot envelopes");
}

TEST(DecoderFuzz, OnlineStatesRejectOrRoundTrip)
{
    const std::vector<std::string> seeds = stateSeeds();
    Tally tally;
    for (std::uint64_t i = 0; i < 20000; ++i)
        checkState(mutant(kOnlineState, i, seeds), tally);
    tally.expectBoth("online states");
}

TEST(DecoderFuzz, JournalFilesScanToTheirValidPrefix)
{
    // Journal::scan never fails; it returns the verified prefix. That
    // prefix must be exactly the header plus the frames of the records
    // it reports, and each record must be a decodable entry or be
    // rejected with a Status.
    const FileSeeds files = fileSeeds();
    const fs::path dir = scratchDir("journal");
    const std::string path = (dir / "journal.amjl").string();
    Tally records;
    int usable = 0;
    for (std::uint64_t i = 0; i < 4000; ++i) {
        bool fix = false;
        std::string in = mutant(kJournalFile, i, files.journals, &fix);
        if (fix) {
            // Re-checksum every frame that still fits in the file.
            std::size_t pos = durability::Journal::kHeaderBytes;
            while (in.size() >= pos + 8) {
                const std::uint32_t len = loadLe32(in.data() + pos);
                if (in.size() - pos - 8 < len)
                    break;
                storeLe32(in.data() + pos + 4,
                          crc32(std::string_view(in).substr(pos + 8, len)));
                pos += 8 + len;
            }
        }
        ASSERT_NO_FATAL_FAILURE(writeBytes(path, in));
        const durability::JournalScan scan =
            durability::Journal::scan(path);
        if (!scan.usable) {
            EXPECT_TRUE(scan.records.empty());
            continue;
        }
        ++usable;
        ASSERT_LE(scan.validBytes, in.size()) << "iteration " << i;
        std::string rebuilt = in.substr(0, durability::Journal::kHeaderBytes);
        for (const durability::ScannedRecord &record : scan.records) {
            durability::ByteWriter frame;
            frame.putU32(static_cast<std::uint32_t>(record.payload.size()));
            frame.putU32(crc32(record.payload));
            rebuilt += frame.bytes() + record.payload;
            EXPECT_EQ(record.endOffset, rebuilt.size());
            checkEntry(record.payload, records);
        }
        ASSERT_EQ(rebuilt, in.substr(0, scan.validBytes))
            << "iteration " << i;
    }
    EXPECT_GT(usable, 0);
    records.expectBoth("journal records");
}

TEST(DecoderFuzz, SnapshotFilesRejectOrRoundTrip)
{
    // decodeFile → decodeSnapshotEnvelope → decodeOnlineState, each
    // layer rejecting or reproducing its input exactly.
    const FileSeeds files = fileSeeds();
    const fs::path dir = scratchDir("snapshot");
    const std::string path = (dir / "snapshot-00000001.amss").string();
    Tally snapshots, envelopes, states;
    for (std::uint64_t i = 0; i < 4000; ++i) {
        bool fix = false;
        std::string in = mutant(kSnapshotFile, i, files.snapshots, &fix);
        if (fix && in.size() >= kSnapshotHeader) {
            const auto payload =
                std::string_view(in).substr(kSnapshotHeader);
            storeLe64(in.data() + kSnapshotHeader - 12, payload.size());
            storeLe32(in.data() + kSnapshotHeader - 4, crc32(payload));
        }
        ASSERT_NO_FATAL_FAILURE(writeBytes(path, in));
        auto snap = durability::SnapshotStore::decodeFile(path);
        if (!snap.ok()) {
            ++snapshots.rejected;
            continue;
        }
        ++snapshots.accepted;
        durability::ByteWriter header;
        header.putU32(loadLe32("AMSS"));
        header.putU32(durability::SnapshotStore::kVersion);
        header.putU64(snap.value().epoch);
        header.putU64(snap.value().payload.size());
        header.putU32(crc32(snap.value().payload));
        ASSERT_EQ(header.bytes() + snap.value().payload, in)
            << "iteration " << i;
        checkEnvelope(snap.value().payload, envelopes, &states);
    }
    snapshots.expectBoth("snapshot files");
    envelopes.expectBoth("snapshot file envelopes");
    states.expectBoth("snapshot file states");
}

// ---------------------------------------------------------------------
// Text decoders
// ---------------------------------------------------------------------

/** The files in tests/data/malformed/ whose names start with
 *  @p prefix. */
std::vector<std::string>
corpus(std::string_view prefix)
{
    std::vector<std::string> files;
    const fs::path dir = fs::path(AMDAHL_TEST_DATA_DIR) / "malformed";
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().filename().string().starts_with(prefix))
            files.push_back(readAll(entry.path()));
    }
    EXPECT_GE(files.size(), 4u) << prefix;
    return files;
}

/** @return true when @p a and @p b have the same bit pattern. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t k = 0; k < a.size(); ++k) {
        if (!sameBits(a[k], b[k]))
            return false;
    }
    return true;
}

bool
sameMarket(const core::FisherMarket &a, const core::FisherMarket &b)
{
    if (!sameBits(a.capacities(), b.capacities()) ||
        a.userCount() != b.userCount())
        return false;
    for (std::size_t i = 0; i < a.userCount(); ++i) {
        const core::MarketUser &x = a.user(i);
        const core::MarketUser &y = b.user(i);
        if (x.name != y.name || !sameBits(x.budget, y.budget) ||
            x.jobs.size() != y.jobs.size())
            return false;
        for (std::size_t k = 0; k < x.jobs.size(); ++k) {
            if (x.jobs[k].server != y.jobs[k].server ||
                !sameBits(x.jobs[k].parallelFraction,
                          y.jobs[k].parallelFraction) ||
                !sameBits(x.jobs[k].weight, y.jobs[k].weight))
                return false;
        }
    }
    return true;
}

bool
sameProfile(const profiling::WorkloadProfile &a,
            const profiling::WorkloadProfile &b)
{
    if (a.workloadName != b.workloadName ||
        a.coreCounts != b.coreCounts ||
        !sameBits(a.datasetsGB, b.datasetsGB) ||
        a.points.size() != b.points.size())
        return false;
    for (std::size_t k = 0; k < a.points.size(); ++k) {
        if (!sameBits(a.points[k].datasetGB, b.points[k].datasetGB) ||
            a.points[k].cores != b.points[k].cores ||
            !sameBits(a.points[k].seconds, b.points[k].seconds))
            return false;
    }
    return true;
}

/**
 * Feed @p iterations mutants of @p seeds to @p decode. Each accepted
 * value's canonical text (@p encode) must decode to the same value
 * (@p same) and re-encode to itself.
 */
template <typename Decode, typename Encode, typename Same>
void
fuzzText(Target target, std::uint64_t iterations,
         const std::vector<std::string> &seeds, Decode decode,
         Encode encode, Same same, const char *name)
{
    Tally tally;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        const std::string in = mutant(target, i, seeds);
        auto value = decode(in);
        if (!value.ok()) {
            ++tally.rejected;
            continue;
        }
        ++tally.accepted;
        const std::string canonical = encode(value.value());
        auto again = decode(canonical);
        ASSERT_TRUE(again.ok())
            << name << " iteration " << i << ": canonical text of an "
            << "accepted input is rejected: "
            << again.status().toString() << "\n" << canonical;
        ASSERT_TRUE(same(value.value(), again.value()))
            << name << " iteration " << i << ":\n" << canonical;
        ASSERT_EQ(encode(again.value()), canonical)
            << name << " iteration " << i;
    }
    tally.expectBoth(name);
}

TEST(DecoderFuzz, MarketFilesRejectOrRoundTrip)
{
    std::vector<std::string> seeds = corpus("market_");
    const auto text = [](const core::FisherMarket &market) {
        std::ostringstream out;
        core::writeMarket(out, market);
        return out.str();
    };
    core::FisherMarket example({10.0, 10.0});
    example.addUser({"Alice", 1.0, {{0, 0.53, 1.0}, {1, 0.93, 1.0}}});
    example.addUser({"Bob", 1.0, {{0, 0.96, 1.0}, {1, 0.68, 1.0}}});
    seeds.push_back(text(example));
    core::FisherMarket odd({2.0, 1e3, 0.125});
    odd.addUser({"", 0.001, {{2, 0.0, 3.5}, {0, 1.0, 1e-3}}});
    odd.addUser({"x#y", 50.0, {{1, 1.0 / 3.0, 1.0}}});
    seeds.push_back(text(odd));
    // Random valid markets, so most mutants start from a valid one.
    Rng rng(substreamSeed(kFuzzSeed, kMarketText, ~0ULL));
    for (int m = 0; m < 24; ++m) {
        std::vector<double> capacities;
        const auto servers = rng.uniformInt(1, 4);
        for (std::int64_t j = 0; j < servers; ++j)
            capacities.push_back(rng.uniform(0.5, 64.0));
        core::FisherMarket market(capacities);
        const auto users = rng.uniformInt(1, 3);
        for (std::int64_t i = 0; i < users; ++i) {
            core::MarketUser user;
            user.name = "u" + std::to_string(i);
            user.budget = rng.uniform(0.01, 10.0);
            for (std::size_t j = 0; j < capacities.size(); ++j) {
                if (j == 0 || rng.uniformInt(0, 1) == 1)
                    user.jobs.push_back({j, rng.uniform(0.0, 1.0),
                                         rng.uniform(0.1, 4.0)});
            }
            market.addUser(std::move(user));
        }
        seeds.push_back(text(market));
    }
    seeds.push_back("# a comment\n\nservers 4 8   # trailing\n"
                    "user a\njob fraction 0.5 server 1\n"
                    "user b budget 2.50\njob server 0 fraction .9"
                    " weight 2\n");
    fuzzText(
        kMarketText, 60000, seeds,
        [](const std::string &in) {
            return core::tryParseMarketString(in);
        },
        text, sameMarket, "market files");
}

TEST(DecoderFuzz, ProfileCsvsRejectOrRoundTrip)
{
    std::vector<std::string> seeds = corpus("profile_");
    const auto text = [](const profiling::WorkloadProfile &profile) {
        std::ostringstream out;
        profiling::writeProfileCsv(out, profile);
        return out.str();
    };
    profiling::WorkloadProfile grid;
    grid.workloadName = "fuzz";
    for (double gb : {0.5, 2.0, 7.25}) {
        for (int cores : {1, 2, 8, 24})
            grid.points.push_back({gb, cores, 100.0 * gb / cores + 0.3});
    }
    seeds.push_back(text(grid));
    Rng rng(substreamSeed(kFuzzSeed, kProfileCsv, ~0ULL));
    for (int g = 0; g < 16; ++g) {
        profiling::WorkloadProfile random;
        random.workloadName = "fuzz";
        const auto datasets = rng.uniformInt(1, 3);
        for (std::int64_t d = 0; d < datasets; ++d) {
            const double gb = rng.uniform(0.1, 100.0);
            for (int cores = 1; cores <= 16; cores *= 1 + g % 3 + 1)
                random.points.push_back(
                    {gb, cores, rng.uniform(1.0, 5000.0)});
        }
        seeds.push_back(text(random));
    }
    seeds.push_back("seconds,cores,dataset_gb,note\r\n"
                    "41.7,1,\"2.5\",\"a, quoted \"\"note\"\"\"\r\n"
                    "11.0,4.0,2.5e0,\r\n");
    fuzzText(
        kProfileCsv, 60000, seeds,
        [](const std::string &in) {
            return profiling::tryParseProfileCsvString(in, "fuzz");
        },
        text, sameProfile, "profile CSVs");
}

TEST(DecoderFuzz, CsvTablesRejectOrRoundTrip)
{
    std::vector<std::string> seeds = corpus("csv_");
    for (const std::string &profile : corpus("profile_"))
        seeds.push_back(profile);
    const auto text = [](const CsvTable &table) {
        std::ostringstream out;
        CsvWriter csv(out, table.header);
        for (const auto &row : table.rows)
            csv.writeRow(row);
        return out.str();
    };
    seeds.push_back("name,value,comment\n"
                    "a,1,\"quoted, with comma\"\n"
                    "\"multi\nline\",2,\"say \"\"hi\"\"\"\r\n"
                    ",,\n"
                    "\"carriage\rreturn\",3,\"\"\n");
    fuzzText(
        kCsvTable, 20000, seeds,
        [](const std::string &in) { return parseCsvString(in); }, text,
        [](const CsvTable &a, const CsvTable &b) {
            return a.header == b.header && a.rows == b.rows;
        },
        "CSV tables");
}

} // namespace
} // namespace amdahl
