/**
 * @file
 * Varint/zigzag primitives of the JCRC record encoding.
 *
 * The JCRC file (trace/replay_cache.hh, specified normatively in
 * docs/TRACE_FORMAT.md) writes a record as a meta byte, a
 * zigzag-varint address delta, and a varint instruction delta.
 * Two flavors are provided, matched to the call sites:
 *  - buffer appenders (appendLe/appendVarint) for the writer, which
 *    builds the whole file in memory for an atomic rename;
 *  - bounded buffer readers (readLe/readVarint) for the mmap'd
 *    decoder, which must never read past the mapping.
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

/** Append `value` to a byte buffer as a LEB128 varint. */
inline void
appendVarint(std::string& out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>((value & 0x7f) | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
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
    T value = 0;
    for (unsigned i = 0; i < sizeof(T); ++i)
        value |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    p += sizeof(T);
    out = value;
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
