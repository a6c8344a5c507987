/**
 * @file
 * Tests for the checkpoint codecs (common/serialize.h): the byte form
 * each codec writes, that Reader is Writer's exact inverse, and that
 * every load-side check dies with its diagnostic.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "faults/fault.h"
#include "faults/meta_fault.h"
#include "fleet/fleet_types.h"
#include "fleet/wire.h"
#include "ras/ras_event.h"

namespace citadel {
namespace {

enum class Colour : u8
{
    Red,
    Green,
    Blue,
};

/** A record with one field of each codec kind. */
struct Sample
{
    u8 a = 0;
    u32 b = 0;
    u64 c = 0;
    bool d = false;
    double e = 0.0;
    Colour colour = Colour::Red;
    RowId row{};
    LineAddr line{};
    std::vector<u32> list;
    std::map<u64, u32> map;
    std::multimap<u64, u32> multi;
    std::set<u64> set;
    std::array<u64, 2> pair{};
};

void
fields(auto &io, Of<Sample> auto &s)
{
    io(s.a, s.b, s.c, s.d, s.e);
    io.enumByte(s.colour, Colour::Blue, "unknown colour %u");
    io(s.row, s.line, s.list, s.map, s.multi, s.set);
    io.fixed(s.pair);
}

Sample
filledSample()
{
    Sample s;
    s.a = 0xA5;
    s.b = 0x01020304u;
    s.c = 0x1122334455667788ull;
    s.d = true;
    s.e = -2.5;
    s.colour = Colour::Blue;
    s.row = RowId{7};
    s.line = LineAddr{1ull << 40};
    s.list = {1, 2, 3};
    s.map = {{5, 50}, {9, 90}};
    s.multi = {{4, 1}, {4, 2}, {4, 3}}; // equal keys keep their order
    s.set = {3, 30};
    s.pair = {11, 22};
    return s;
}

std::vector<u8>
saved(const Sample &s)
{
    ByteSink sink;
    Writer{sink}(s);
    return sink.bytes();
}

TEST(Codecs, WriteTheDocumentedByteForm)
{
    const Sample s = filledSample();
    ByteSink want;
    want.putU8(0xA5);
    want.putU32(0x01020304u);
    want.putU64(0x1122334455667788ull);
    want.putBool(true);
    want.putDouble(-2.5);
    want.putU8(2);             // enum: one byte
    want.putU32(7);            // RowId: its raw u32
    want.putU64(1ull << 40);   // LineAddr: its raw u64
    want.putU64(3);            // vector: count, then elements
    for (u32 v : {1u, 2u, 3u})
        want.putU32(v);
    want.putU64(2);            // map: count, then (key, value) in order
    want.putU64(5);
    want.putU32(50);
    want.putU64(9);
    want.putU32(90);
    want.putU64(3);            // multimap: equal keys in insertion order
    for (u32 v : {1u, 2u, 3u}) {
        want.putU64(4);
        want.putU32(v);
    }
    want.putU64(2);            // set: count, then keys in order
    want.putU64(3);
    want.putU64(30);
    want.putU64(11);           // fixed sequence: no count
    want.putU64(22);
    EXPECT_EQ(saved(s), want.bytes());
}

TEST(Codecs, ReaderIsTheWritersInverse)
{
    const std::vector<u8> bytes = saved(filledSample());
    Sample back;
    back.list = {99}; // stale contents are replaced, not appended to
    back.set = {77};
    ByteSource src(bytes);
    Reader{src}(back);
    EXPECT_EQ(src.remaining(), 0u);
    EXPECT_EQ(saved(back), bytes);
    ASSERT_EQ(back.multi.size(), 3u);
    u32 want = 1;
    for (const auto &[k, v] : back.multi)
        EXPECT_EQ(v, want++);
}

TEST(Codecs, FixedBoolSequenceRoundTrips)
{
    const std::vector<bool> in = {true, false, true};
    ByteSink sink;
    Writer{sink}.fixed(in);
    EXPECT_EQ(sink.bytes(), (std::vector<u8>{1, 0, 1}));
    std::vector<bool> out(3, false);
    ByteSource src(sink.bytes());
    Reader{src}.fixed(out);
    EXPECT_EQ(out, in);
}

TEST(Codecs, WireBytesIsTheSizeOfADefaultValue)
{
    // Counted containers save empty, so this is each type's minimum:
    // the element size a restored count is checked against.
    EXPECT_EQ(wireBytes<u32>(), 4u);
    EXPECT_EQ(wireBytes<Fault>(), 6 * 8 + 1 + 1 + 1 + 8 + 4u);
    EXPECT_EQ(wireBytes<MetaFault>(), 1 + 4 * 4 + 8 + 8 + 1 + 8u);
    EXPECT_EQ((wireBytes<std::pair<u64, std::vector<Fault>>>()), 16u);
    EXPECT_EQ(wireBytes<RasCounters>(), sizeof(RasCounters));
    EXPECT_EQ(wireBytes<fleet::Request>(), fleet::kRequestRecordBytes);
    EXPECT_EQ(wireBytes<fleet::Response>(), fleet::kResponseRecordBytes);
}

TEST(Codecs, RecordsRoundTrip)
{
    Fault f;
    f.stack = DimSpec::exact(1);
    f.row = DimSpec::masked(0x30, 0xF0);
    f.cls = FaultClass::AddrTsvBank;
    f.transient = true;
    f.timeHours = 123.25;
    f.tsvIndex = TsvLane{9};
    MetaFault m;
    m.target = MetaTarget::ParityCacheLine;
    m.slot = MetaSlotId{3};
    m.flipMask = 0b101;
    m.timeHours = 4.5;
    fleet::Response r;
    r.op = 77;
    r.status = fleet::Status::Busy;
    r.from = 2;

    ByteSink sink;
    Writer{sink}(f, m, r);
    Fault f2;
    MetaFault m2;
    fleet::Response r2;
    ByteSource src(sink.bytes());
    Reader{src}(f2, m2, r2);
    EXPECT_EQ(src.remaining(), 0u);
    ByteSink again;
    Writer{again}(f2, m2, r2);
    EXPECT_EQ(again.bytes(), sink.bytes());
    EXPECT_EQ(f2.cls, FaultClass::AddrTsvBank);
    EXPECT_EQ(m2.target, MetaTarget::ParityCacheLine);
    EXPECT_EQ(r2.status, fleet::Status::Busy);
}

TEST(CodecsDeath, EnumBytePastTheLastIsFatal)
{
    std::vector<u8> bytes = saved(filledSample());
    const std::size_t colour = 1 + 4 + 8 + 1 + 8;
    ASSERT_EQ(bytes[colour], 2u);
    bytes[colour] = 3;
    Sample back;
    ByteSource src(bytes);
    EXPECT_DEATH(Reader{src}(back), "unknown colour 3");
}

TEST(CodecsDeath, CorruptCountFailsBeforeAllocating)
{
    ByteSink sink;
    sink.putU64(u64{1} << 40); // a vector<Fault> count, no elements
    std::vector<Fault> faults;
    ByteSource src(sink.bytes());
    EXPECT_DEATH(Reader{src}(faults), "container count 1099511627776");
}

TEST(CodecsDeath, ExpectRejectsAnyOtherValue)
{
    ByteSink sink;
    Writer{sink}.expect(u32{2}, "ignored on save");
    ByteSource src(sink.bytes());
    EXPECT_DEATH(Reader{src}.expect(u32{1}, "demo: shape mismatch"),
                 "demo: shape mismatch \\(checkpoint has 2, expected 1\\)");
}

/** A keyTable stream: the count `n`, then each (key, entry). */
template <class T>
std::vector<u8>
keyTableBytes(u64 n, const std::vector<std::pair<u64, T>> &entries)
{
    ByteSink sink;
    Writer out{sink};
    out(n);
    for (const auto &e : entries)
        out(e);
    return sink.bytes();
}

/** Load `bytes` into a table of `size` entries that held `junk`. */
template <class T>
std::vector<T>
loadKeyTable(const std::vector<u8> &bytes, std::size_t size, const T &empty,
             const T &junk)
{
    std::vector<T> table(size, junk);
    ByteSource src(bytes);
    Reader{src}.keyTable(table, empty, "demo table");
    EXPECT_EQ(src.remaining(), 0u);
    return table;
}

/** Round trip and every rejection for one entry type; `a` and `b` are
 *  distinct entries other than `empty`. */
template <class T>
void
checkKeyTable(const T &empty, const T &a, const T &b)
{
    // Saved as the ordered map it stands for: the same bytes.
    std::vector<T> table(10, empty);
    table[1] = a;
    table[4] = b;
    table[9] = a;
    ByteSink sink;
    Writer{sink}.keyTable(table, empty, "ignored on save");
    EXPECT_EQ(sink.bytes(),
              (keyTableBytes<T>(3, {{1, a}, {4, b}, {9, a}})));
    std::map<u64, T> asMap{{1, a}, {4, b}, {9, a}};
    ByteSink mapSink;
    Writer{mapSink}(asMap);
    EXPECT_EQ(sink.bytes(), mapSink.bytes());
    // Loading replaces every entry, the absent ones included.
    EXPECT_EQ(loadKeyTable(sink.bytes(), 10, empty, b), table);
    ByteSink none;
    Writer{none}.keyTable(std::vector<T>(10, empty), empty, "");
    EXPECT_EQ(none.bytes(), std::vector<u8>(8, 0));
    EXPECT_EQ(loadKeyTable(none.bytes(), 10, empty, a),
              std::vector<T>(10, empty));

    const auto load = [&](u64 n,
                          const std::vector<std::pair<u64, T>> &entries) {
        loadKeyTable(keyTableBytes<T>(n, entries), 10, empty, empty);
    };
    // The second entry starts after the count and the first entry.
    const std::string second =
        "offset " + std::to_string(8 + wireBytes<std::pair<u64, T>>());
    EXPECT_DEATH(load(2, {{1, a}, {10, b}}),
                 "demo table key 10 outside the key space \\(10\\)");
    EXPECT_DEATH(load(2, {{4, a}, {4, b}}),
                 "demo table key 4 is duplicated or out of order \\(" +
                     second);
    EXPECT_DEATH(load(2, {{4, a}, {2, b}}),
                 "demo table key 2 is duplicated or out of order \\(" +
                     second);
    EXPECT_DEATH(load(1, {{3, empty}}),
                 "demo table key 3 holds the empty entry \\(offset 8\\)");
    EXPECT_DEATH(load(3, {{1, a}, {4, b}, {9, empty}}),
                 "demo table key 9 holds the empty entry");
    EXPECT_DEATH(load(3, {{1, a}, {4, b}}),
                 "container count 3 exceeds remaining");
}

TEST(CodecsDeath, KeyTableRoundTripsAndRejectsCorruptEntries)
{
    {
        SCOPED_TRACE("u64");
        checkKeyTable<u64>(0, 3, 7);
    }
    {
        SCOPED_TRACE("u32, empty is all ones");
        checkKeyTable<u32>(0xFFFFFFFFu, 0, 2);
    }
    {
        SCOPED_TRACE("pair");
        using Entry = std::pair<u64, u64>;
        checkKeyTable<Entry>({0, 0}, {1, 5}, {2, 0});
    }
}

TEST(CodecsDeath, CountedMapAndSetRejectDuplicateKeys)
{
    // A count, then each key, with a zero value after it in a map.
    const auto load = [](auto container, std::initializer_list<u64> keys) {
        using C = decltype(container);
        ByteSink sink;
        sink.putU64(keys.size());
        for (u64 k : keys) {
            sink.putU64(k);
            if constexpr (requires { typename C::mapped_type; })
                sink.putU64(0);
        }
        ByteSource src(sink.bytes());
        Reader{src}(container);
        return container.size();
    };
    using Map = std::map<u64, u64>;
    using Set = std::set<u64>;
    EXPECT_EQ(load(Map{}, {1, 4, 9}), 3u);
    EXPECT_EQ(load(Set{}, {1, 4, 9}), 3u);
    EXPECT_EQ(load(std::multimap<u64, u64>{}, {4, 4, 2}), 3u);
    // The second element starts after the count and the first one.
    EXPECT_DEATH(load(Map{}, {4, 4}),
                 "checkpoint: key at offset 24 is duplicated or out of order");
    EXPECT_DEATH(load(Map{}, {4, 2}), "key at offset 24 is duplicated");
    EXPECT_DEATH(load(Set{}, {3, 3}), "key at offset 16 is duplicated");
    EXPECT_DEATH(load(Set{}, {3, 1}), "key at offset 16 is duplicated");
}

} // namespace
} // namespace citadel
