/**
 * @file
 * Varint/zigzag primitives of the JCRC record encoding.
 *
 * The JCRC file (trace/replay_cache.hh, specified normatively in
 * docs/TRACE_FORMAT.md) writes a record as a meta byte, a
 * zigzag-varint address delta, and a varint instruction delta.
 * Two flavors are provided, matched to the call sites:
 *  - writers for the encoder, which builds the whole file in memory
 *    for an atomic rename: appendLe for the fixed-width header
 *    fields, and putVarint, which writes through a pointer into
 *    headroom the encoder has sized for the widest record;
 *  - bounded buffer readers (readLe/readVarint) for the mmap'd
 *    decoder, which must never read past the mapping, and the
 *    unchecked loadLe under readLe, which the JCTR reader also uses
 *    on records it has already read whole.
 *
 * The varint encoding is LEB128: 7 payload bits per byte, low bits
 * first, high bit set on every byte but the last.  Zigzag maps signed
 * deltas onto unsigned values so small negative strides stay short:
 * 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ...
 */

#ifndef JCACHE_TRACE_VARINT_HH
#define JCACHE_TRACE_VARINT_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace jcache::trace
{

/** ZigZag-encode a signed delta into an unsigned varint payload. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode(). */
constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Append `value` to a byte buffer as little-endian fixed-width bytes. */
template <typename T>
void
appendLe(std::string& out, T value)
{
    for (unsigned i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

/**
 * Write `value` at `p` as a LEB128 varint and return the byte after
 * it.  The caller guarantees room for up to 10 bytes (a 64-bit value
 * takes ceil(64 / 7)).
 */
inline char*
putVarint(char* p, std::uint64_t value)
{
    while (value >= 0x80) {
        *p++ = static_cast<char>((value & 0x7f) | 0x80);
        value >>= 7;
    }
    *p++ = static_cast<char>(value);
    return p;
}

/**
 * Decode the little-endian fixed-width integer at `p`, which the
 * caller guarantees holds sizeof(T) bytes.
 */
template <typename T>
T
loadLe(const unsigned char* p)
{
    T value = 0;
    for (unsigned i = 0; i < sizeof(T); ++i)
        value |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    return value;
}

/**
 * Read one little-endian fixed-width integer from [p, end).
 *
 * Advances `p` past the value on success; returns false (leaving `p`
 * unspecified) when fewer than sizeof(T) bytes remain.
 */
template <typename T>
bool
readLe(const unsigned char*& p, const unsigned char* end, T& out)
{
    if (static_cast<std::size_t>(end - p) < sizeof(T))
        return false;
    out = loadLe<T>(p);
    p += sizeof(T);
    return true;
}

/**
 * Read one LEB128 varint from [p, end).
 *
 * Advances `p` past the varint on success; returns false on
 * truncation or an encoding longer than 64 bits.  Never dereferences
 * at or beyond `end`, so it is safe directly against an mmap'd file.
 */
inline bool
readVarint(const unsigned char*& p, const unsigned char* end,
           std::uint64_t& out)
{
    std::uint64_t value = 0;
    unsigned shift = 0;
    while (p < end) {
        const unsigned char byte = *p++;
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            out = value;
            return true;
        }
        shift += 7;
        if (shift >= 64)
            return false;
    }
    return false;
}

} // namespace jcache::trace

#endif // JCACHE_TRACE_VARINT_HH
