/**
 * @file
 * Minimal deterministic binary serialization for checkpoint/resume.
 *
 * The soak campaigns (src/ras/soak.h) periodically freeze the live RAS
 * datapath -- fault sets, remap tables, swap registers, poison state --
 * and must restore it bit-identically, so the encoding has to be
 * platform-stable: fixed-width little-endian integers, doubles as their
 * IEEE-754 bit pattern, explicit lengths on every container. No
 * varints, no endianness surprises, no implementation-defined layout.
 *
 * ByteSource treats every malformed read (truncation, overlong
 * container) as fatal: a checkpoint is either exactly right or useless,
 * and continuing from half-parsed RAS state would silently invalidate
 * the determinism proof the checkpoint exists to provide.
 *
 * One layout per type. Every checkpointed type writes its byte layout
 * exactly once, as a *field list*: a function template over an `io`
 * that names the fields in wire order. Writer runs the list to save
 * and Reader runs the same list to load, so the two directions cannot
 * drift apart.
 *  - A record (a plain struct: Fault, Request, RasCounters, ...)
 *    declares `void fields(auto &io, Of<T> auto &r)` beside the type;
 *    the codecs find it by argument-dependent lookup.
 *  - A class keeps its list private and runs it from its public
 *    `saveState(ByteSink &) const` and `loadState(ByteSource &)`. A
 *    class nested in another list is written through those two, so
 *    its load-only work runs wherever it is restored.
 *  - Load-only work (range and order checks, rebuilding derived state
 *    such as engines, ring points or memos) follows the list in
 *    loadState. A list never branches on its direction. The checks
 *    that must fire before the rest of a stream is parsed are codecs
 *    serving both directions: expect() for constants the reader
 *    already knows, enumByte() for enums, keyTable() for dense
 *    per-key tables.
 *  - A dense per-key table (a std::vector indexed by key, one value
 *    meaning "absent") is saved through keyTable() as the ordered map
 *    it stands for. Other state whose saved form differs from its
 *    in-memory form (a ring buffer saved in FIFO order, the client's
 *    op slots saved as their live records) keeps explicit save and
 *    load loops in a small view type with its own saveState/loadState,
 *    named once in its owner's list; each element still goes through
 *    its record's list.
 *
 * The codecs: u8, u32, u64, bool and double as above; a StrongId as
 * its raw value; an enum as one range-checked byte; std::vector,
 * std::map, std::multimap and std::set as a u64 count and then their
 * elements in order, read through getCount() so a corrupt count fails
 * before it allocates (a std::map or std::set key not strictly above
 * its predecessor fails rather than being dropped); fixed() for a
 * sequence whose length the reader already knows, written without a
 * count; keyTable() for a dense per-key table, as a count of its
 * non-empty entries and then (u64 key, entry) for each in ascending
 * key order, read back rejecting a key outside the table or not above
 * its predecessor, an empty entry, and a count the stream cannot hold;
 * std::pair as first, second; std::unique_ptr as its pointee.
 */

#ifndef CITADEL_COMMON_SERIALIZE_H
#define CITADEL_COMMON_SERIALIZE_H

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace citadel {

/** Append-only little-endian byte stream. */
class ByteSink
{
  public:
    void putU8(u8 v) { bytes_.push_back(v); }

    void putU32(u32 v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(static_cast<u8>(v >> (8 * i)));
    }

    void putU64(u64 v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<u8>(v >> (8 * i)));
    }

    void putBool(bool v) { putU8(v ? 1 : 0); }

    /** IEEE-754 bit pattern; bit-exact round trip. */
    void putDouble(double v) { putU64(std::bit_cast<u64>(v)); }

    const std::vector<u8> &bytes() const { return bytes_; }

  private:
    std::vector<u8> bytes_;
};

/** Sequential reader over a ByteSink's output; truncation is fatal. */
class ByteSource
{
  public:
    explicit ByteSource(const std::vector<u8> &bytes) : bytes_(bytes) {}

    u8 getU8()
    {
        need(1);
        return bytes_[pos_++];
    }

    u32 getU32()
    {
        need(4);
        u32 v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<u32>(bytes_[pos_++]) << (8 * i);
        return v;
    }

    u64 getU64()
    {
        need(8);
        u64 v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<u64>(bytes_[pos_++]) << (8 * i);
        return v;
    }

    bool getBool() { return getU8() != 0; }

    double getDouble() { return std::bit_cast<double>(getU64()); }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return bytes_.size() - pos_; }

    /** Bytes consumed so far: where the next read starts. */
    std::size_t offset() const { return pos_; }

    /**
     * Container length guard: a corrupt length field must fail here,
     * not as a multi-gigabyte allocation. Each element needs at least
     * `elem_bytes` bytes still in the stream.
     */
    u64 getCount(std::size_t elem_bytes)
    {
        const u64 n = getU64();
        if (elem_bytes != 0 && n > remaining() / elem_bytes)
            fatal("checkpoint: container count %llu exceeds remaining "
                  "%zu bytes",
                  static_cast<unsigned long long>(n), remaining());
        return n;
    }

  private:
    void need(std::size_t n) const
    {
        if (pos_ + n > bytes_.size())
            fatal("checkpoint: truncated stream (want %zu bytes at "
                  "offset %zu of %zu)",
                  n, pos_, bytes_.size());
    }

    const std::vector<u8> &bytes_;
    std::size_t pos_ = 0;
};

/** `T` or `const T`: a field list takes its object as `Of<T> auto &`,
 *  so one list binds to a const object when saving and to a mutable
 *  one when loading. */
template <class U, class T>
concept Of = std::same_as<std::remove_const_t<U>, T>;

namespace serialize_detail {

/** std::vector, std::map, std::multimap, std::set: a count, then the
 *  elements in iteration (for the ordered ones, key) order. */
template <class T>
concept Counted = requires(T &v) {
    v.size();
    v.begin();
    v.clear();
};

/** What one element of a counted container decodes into: a map's
 *  entry with a mutable key, or the element itself. */
template <class T> struct Element
{
    using type = typename T::value_type;
};
template <class T>
    requires requires { typename T::mapped_type; }
struct Element<T>
{
    using type = std::pair<typename T::key_type, typename T::mapped_type>;
};

/** std::map and std::set: ordered, and insert() reports whether the
 *  key was new, since a key may appear only once. */
template <class T>
concept UniqueKeys = requires(T &c, const typename T::value_type &e) {
    c.key_comp();
    { c.insert(e) } -> std::same_as<std::pair<typename T::iterator, bool>>;
};

/** The key of a map entry or set element of container C. */
template <class C, class E>
const auto &
keyOf(const E &e)
{
    if constexpr (requires { typename C::mapped_type; })
        return e.first;
    else
        return e;
}

template <class T>
concept Id = requires { typename T::tag_type; };

template <class T>
concept Pair = requires(T &v) {
    v.first;
    v.second;
};

template <class T>
concept Owner = requires(T &v) {
    typename T::element_type;
    v.get();
};

} // namespace serialize_detail

/** The save direction of a field list: appends each field to a sink. */
class Writer
{
  public:
    explicit Writer(ByteSink &sink) : sink_(sink) {}

    /** Write each argument through its codec, in order. */
    template <class... Ts> void operator()(const Ts &...vs) { (put(vs), ...); }

    /** Sequences whose lengths the reader already knows: no count. */
    template <class... Seqs> void fixed(const Seqs &...seqs)
    {
        (putEach(seqs), ...);
    }

    /** An enum as one byte. The reader rejects a byte past `last`
     *  with `diag`, a printf format taking the byte as %u. */
    template <class E>
    void enumByte(const E &v, std::type_identity_t<E>, const char *)
    {
        static_assert(std::is_enum_v<E>);
        sink_.putU8(static_cast<u8>(v));
    }

    /** A value the reader already knows (magic, version, shape,
     *  config digest). The reader rejects any other, naming `what`. */
    template <class T> void expect(const T &v, const char *) { put(v); }

    /** A dense per-key table saved as the ordered map it stands for:
     *  the count of entries other than `empty`, then (u64 key, entry)
     *  for each in ascending key order. The reader rejects, naming
     *  `what`, a key outside the table, a key not above its
     *  predecessor and an `empty` entry, and through getCount() a
     *  count the stream cannot hold. */
    template <class T>
    void keyTable(const std::vector<T> &table, const T &empty, const char *)
    {
        sink_.putU64(static_cast<u64>(
            table.size() - std::count(table.begin(), table.end(), empty)));
        for (u64 key = 0; key < table.size(); ++key)
            if (!(table[key] == empty))
                (*this)(key, table[key]);
    }

    ByteSink &sink() { return sink_; }

  private:
    template <class Seq> void putEach(const Seq &seq)
    {
        for (const auto &e : seq)
            put(e);
    }

    template <class T> void put(const T &v)
    {
        using namespace serialize_detail;
        if constexpr (std::is_same_v<T, u8>)
            sink_.putU8(v);
        else if constexpr (std::is_same_v<T, u32>)
            sink_.putU32(v);
        else if constexpr (std::is_same_v<T, u64>)
            sink_.putU64(v);
        else if constexpr (std::is_same_v<T, bool>)
            sink_.putBool(v);
        else if constexpr (std::is_same_v<T, double>)
            sink_.putDouble(v);
        else if constexpr (Id<T>)
            put(v.value());
        else if constexpr (Counted<T>) {
            sink_.putU64(static_cast<u64>(v.size()));
            putEach(v);
        } else if constexpr (Pair<T>) {
            put(v.first);
            put(v.second);
        } else if constexpr (Owner<T>)
            put(*v);
        else if constexpr (requires { v.saveState(sink_); })
            v.saveState(sink_);
        else
            fields(*this, v);
    }

    ByteSink &sink_;
};

/** Bytes one default-valued T takes on the wire: the least any T can
 *  take, since only counted containers vary and they save empty. */
template <class T>
std::size_t
wireBytes()
{
    static const std::size_t n = [] {
        ByteSink sink;
        Writer{sink}(T{});
        return sink.bytes().size();
    }();
    return n;
}

/** The load direction of a field list: reads each field from a
 *  source, replacing the object's previous contents. */
class Reader
{
  public:
    explicit Reader(ByteSource &src) : src_(src) {}

    /** Read each argument through its codec, in order. */
    template <class... Ts> void operator()(Ts &...vs) { (get(vs), ...); }

    template <class... Seqs> void fixed(Seqs &...seqs)
    {
        (getEach(seqs), ...);
    }

    template <class E>
    void enumByte(E &v, std::type_identity_t<E> last, const char *diag)
    {
        static_assert(std::is_enum_v<E>);
        const u8 raw = src_.getU8();
        if (raw > static_cast<u8>(last))
            fatal(diag, static_cast<unsigned>(raw));
        v = static_cast<E>(raw);
    }

    template <class T> void expect(const T &want, const char *what)
    {
        T got{};
        get(got);
        if (got != want)
            fatal("%s (checkpoint has %llu, expected %llu)", what,
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
    }

    template <class T>
    void keyTable(std::vector<T> &table, const T &empty, const char *what)
    {
        std::fill(table.begin(), table.end(), empty);
        const u64 n = count<std::pair<u64, T>>();
        for (u64 i = 0, next = 0; i < n; ++i) {
            const std::size_t at = src_.offset();
            u64 key = 0;
            T entry{};
            (*this)(key, entry);
            if (key >= table.size())
                fatal("%s key %llu outside the key space (%zu)", what,
                      static_cast<unsigned long long>(key), table.size());
            if (key < next)
                fatal("%s key %llu is duplicated or out of order "
                      "(offset %zu)",
                      what, static_cast<unsigned long long>(key), at);
            if (entry == empty)
                fatal("%s key %llu holds the empty entry (offset %zu)",
                      what, static_cast<unsigned long long>(key), at);
            table[key] = entry;
            next = key + 1;
        }
    }

    /** A container count, checked against the element's wire size. */
    template <class Elem> u64 count()
    {
        return src_.getCount(wireBytes<Elem>());
    }

    ByteSource &source() { return src_; }

  private:
    /** May `e` follow the container's last element? A std::map or
     *  std::set needs its key strictly above the last under key_comp():
     *  insert() would drop a duplicate, and the loaded state would not
     *  re-save to the bytes it came from. Other containers take any. */
    template <class C, class E> static bool inKeyOrder(const C &c, const E &e)
    {
        using namespace serialize_detail;
        if constexpr (UniqueKeys<C>)
            return c.empty() ||
                   c.key_comp()(keyOf<C>(*c.rbegin()), keyOf<C>(e));
        else
            return true;
    }

    template <class Seq> void getEach(Seq &seq)
    {
        for (auto &&e : seq)
            get(e);
    }

    template <class T> void get(T &v)
    {
        using namespace serialize_detail;
        if constexpr (std::is_same_v<T, u8>)
            v = src_.getU8();
        else if constexpr (std::is_same_v<T, u32>)
            v = src_.getU32();
        else if constexpr (std::is_same_v<T, u64>)
            v = src_.getU64();
        else if constexpr (std::is_same_v<T, bool>)
            v = src_.getBool();
        else if constexpr (std::is_same_v<T, double>)
            v = src_.getDouble();
        else if constexpr (Id<T>) {
            typename T::value_type raw{};
            get(raw);
            v = T{raw};
        } else if constexpr (Counted<T>) {
            using E = typename Element<T>::type;
            v.clear();
            const u64 n = count<E>();
            for (u64 i = 0; i < n; ++i) {
                const std::size_t at = src_.offset();
                E e{};
                get(e);
                if (!inKeyOrder(v, e))
                    fatal("checkpoint: key at offset %zu is duplicated or "
                          "out of order",
                          at);
                v.insert(v.end(), std::move(e));
            }
        } else if constexpr (Pair<T>) {
            get(v.first);
            get(v.second);
        } else if constexpr (Owner<T>)
            get(*v);
        else if constexpr (requires { v.loadState(src_); })
            v.loadState(src_);
        else
            fields(*this, v);
    }

    /** One element of a std::vector<bool> (fixed() over one). */
    void get(std::vector<bool>::reference b) { b = src_.getBool(); }

    ByteSource &src_;
};

/** FNV-1a 64-bit, the checkpoint/stats fingerprint hash. */
inline u64
fnv1a(const u8 *data, std::size_t len, u64 seed = 0xCBF29CE484222325ull)
{
    u64 h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

inline u64
fnv1a(const std::vector<u8> &bytes, u64 seed = 0xCBF29CE484222325ull)
{
    return fnv1a(bytes.data(), bytes.size(), seed);
}

} // namespace citadel

#endif // CITADEL_COMMON_SERIALIZE_H
