/**
 * @file
 * Stable content digests shared by every layer that names data by
 * value.
 *
 * The result cache, the persistent result store and the trace
 * identity all key entries by a 64-bit FNV-1a digest rendered as
 * fixed-width hex.  The function lives here — below the service and
 * store layers — so the digest of a given byte sequence is one
 * definition, stable across runs, platforms and refactors (digests
 * appear in responses, logs and on-disk file names).
 */

#ifndef JCACHE_UTIL_DIGEST_HH
#define JCACHE_UTIL_DIGEST_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>

namespace jcache::util
{

/** FNV-1a 64-bit offset basis. */
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** FNV-1a 64-bit prime. */
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** Fold one byte into a running FNV-1a state. */
inline std::uint64_t
fnv1aByte(std::uint64_t state, std::uint8_t byte)
{
    state ^= byte;
    state *= kFnvPrime;
    return state;
}

/** kFnvPrime^k for k = 0..8: k zero bytes fold into one multiply. */
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
    std::array<std::uint64_t, 9> powers{};
    powers[0] = 1;
    for (std::size_t k = 1; k < powers.size(); ++k)
        powers[k] = powers[k - 1] * kFnvPrime;
    return powers;
}();

/**
 * Fold an unsigned integer into the state, least-significant byte
 * first: the same state as sizeof(T) fnv1aByte() calls.
 *
 * A zero byte's xor changes nothing, so the high zero bytes above the
 * most significant non-zero one join that byte's multiply as one
 * multiply by a power of the prime; zero bytes below it are folded
 * one by one.  A 3-byte address in an 8-byte field then costs three
 * dependent multiplies instead of eight.
 */
template <typename T>
inline std::uint64_t
fnv1aValue(std::uint64_t state, T value)
{
    static_assert(std::is_unsigned_v<T> && sizeof(T) <= 8);
    if constexpr (sizeof(T) == 1) {
        return fnv1aByte(state, value);
    } else {
        std::uint64_t bits = value;
        if (bits == 0)
            return state * kFnvPrimePowers[sizeof(T)];
        const auto used =
            static_cast<unsigned>((std::bit_width(bits) + 7) / 8);
        for (unsigned i = 1; i < used; ++i) {
            state = fnv1aByte(state, static_cast<std::uint8_t>(bits));
            bits >>= 8;
        }
        return (state ^ bits) * kFnvPrimePowers[sizeof(T) - used + 1];
    }
}

/** FNV-1a 64 of a byte string, from the standard offset basis. */
inline std::uint64_t
fnv1a(const std::string& bytes, std::uint64_t state = kFnvOffset)
{
    for (unsigned char ch : bytes)
        state = fnv1aByte(state, ch);
    return state;
}

/** A 64-bit digest as fixed-width (16 char) lowercase hex. */
inline std::string
hexDigest(std::uint64_t digest)
{
    static const char* const kHex = "0123456789abcdef";
    std::string text(16, '0');
    for (int i = 15; i >= 0; --i) {
        text[static_cast<std::size_t>(i)] = kHex[digest & 0xf];
        digest >>= 4;
    }
    return text;
}

/** FNV-1a 64 of a byte string, as fixed-width hex. */
inline std::string
fnv1aHex(const std::string& bytes)
{
    return hexDigest(fnv1a(bytes));
}

} // namespace jcache::util

#endif // JCACHE_UTIL_DIGEST_HH
