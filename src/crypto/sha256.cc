#include "crypto/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "util/logging.h"

namespace nasd::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

constexpr std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

bool
detectShaNi()
{
#if defined(__x86_64__)
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid(1, &a, &b, &c, &d) == 0)
        return false;
    const bool ssse3_sse41 = (c & bit_SSSE3) != 0 && (c & bit_SSE4_1) != 0;
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0)
        return false;
    return ssse3_sse41 && (b & bit_SHA) != 0;
#else
    return false;
#endif
}

// Probed during static initialisation. A Sha256 used before that (from
// another translation unit's static initialiser) sees false and takes
// the portable path, which yields the same digest.
const bool g_sha_ni = detectShaNi();

void
compress(Sha256State &state, const std::uint8_t *data, std::size_t blocks)
{
#if defined(__x86_64__)
    if (g_sha_ni) {
        compressShaNi(state, data, blocks);
        return;
    }
#endif
    compressPortable(state, data, blocks);
}

} // namespace

bool
shaNiAvailable()
{
    return g_sha_ni;
}

void
compressPortable(Sha256State &state, const std::uint8_t *data,
                 std::size_t blocks)
{
    for (; blocks > 0; --blocks, data += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
                   (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
                   (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
                   static_cast<std::uint32_t>(data[i * 4 + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 = rotr(w[i - 15], 7) ^
                                     rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 = rotr(w[i - 2], 17) ^
                                     rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0];
        std::uint32_t b = state[1];
        std::uint32_t c = state[2];
        std::uint32_t d = state[3];
        std::uint32_t e = state[4];
        std::uint32_t f = state[5];
        std::uint32_t g = state[6];
        std::uint32_t h = state[7];

        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 =
                h + s1 + ch + kRoundConstants[i] + w[i];
            const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__)
// NOLINTBEGIN(portability-simd-intrinsics): the SHA extensions are
// reachable only through these intrinsics (std::simd has no SHA-256
// rounds); the function is compiled for the sha target alone and runs
// only after CPUID reports the extensions, with compressPortable as
// the fallback everywhere else.
__attribute__((target("sha,sse4.1"))) void
compressShaNi(Sha256State &state, const std::uint8_t *data,
              std::size_t blocks)
{
    // Byte-swap each 32-bit word of a block: SHA-256 is big-endian.
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

    // The round instructions want the state as ABEF and CDGH (lanes
    // named high to low below).
    __m128i tmp = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(state.data()));     // ABCD
    __m128i cdgh = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(state.data() + 4)); // EFGH
    tmp = _mm_shuffle_epi32(tmp, 0xB1);                       // CDAB
    cdgh = _mm_shuffle_epi32(cdgh, 0x1B);                     // EFGH
    __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);             // ABEF
    cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);                  // CDGH

    for (; blocks > 0; --blocks, data += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        // msg[g % 4] holds schedule words 4g..4g+3 when group g runs;
        // each group also advances the schedule for groups g+1 and g+3.
        __m128i msg[4];
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            if (g < 4) {
                msg[g] = _mm_shuffle_epi8(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(data + 16 * g)),
                    bswap);
            }
            __m128i wk = _mm_add_epi32(
                msg[g % 4],
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    kRoundConstants.data() + 4 * g)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            if (g >= 3 && g <= 14) {
                const __m128i carry =
                    _mm_alignr_epi8(msg[g % 4], msg[(g + 3) % 4], 4);
                msg[(g + 1) % 4] = _mm_sha256msg2_epu32(
                    _mm_add_epi32(msg[(g + 1) % 4], carry), msg[g % 4]);
            }
            wk = _mm_shuffle_epi32(wk, 0x0E);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
            if (g >= 1 && g <= 12) {
                msg[(g + 3) % 4] =
                    _mm_sha256msg1_epu32(msg[(g + 3) % 4], msg[g % 4]);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    tmp = _mm_shuffle_epi32(abef, 0x1B);         // FEBA
    cdgh = _mm_shuffle_epi32(cdgh, 0xB1);        // DCHG
    abef = _mm_blend_epi16(tmp, cdgh, 0xF0);     // DCBA
    cdgh = _mm_alignr_epi8(cdgh, tmp, 8);        // HGFE
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state.data()), abef);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state.data() + 4), cdgh);
}
// NOLINTEND(portability-simd-intrinsics)
#endif

void
Sha256::reset()
{
    state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    buffered_ = 0;
    total_bytes_ = 0;
}

const Sha256State &
Sha256::midstate() const
{
    NASD_ASSERT(buffered_ == 0, "midstate of a partial block");
    return state_;
}

void
Sha256::update(std::span<const std::uint8_t> data)
{
    total_bytes_ += data.size();
    std::size_t offset = 0;
    if (buffered_ > 0 && !data.empty()) {
        const std::size_t take =
            std::min(data.size(), buffer_.size() - buffered_);
        std::memcpy(buffer_.data() + buffered_, data.data(), take);
        buffered_ += take;
        offset += take;
        if (buffered_ == buffer_.size()) {
            compress(state_, buffer_.data(), 1);
            buffered_ = 0;
        }
    }
    const std::size_t whole = (data.size() - offset) / 64;
    if (whole > 0) {
        compress(state_, data.data() + offset, whole);
        offset += whole * 64;
    }
    if (offset < data.size()) {
        std::memcpy(buffer_.data(), data.data() + offset,
                    data.size() - offset);
        buffered_ = data.size() - offset;
    }
}

Digest
Sha256::finish()
{
    const std::uint64_t bit_length = total_bytes_ * 8;

    // Pad in place: the 0x80 terminator, zeros up to 56 mod 64, then
    // the big-endian bit length.
    buffer_[buffered_++] = 0x80;
    if (buffered_ > 56) {
        std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_),
                  buffer_.end(), 0);
        compress(state_, buffer_.data(), 1);
        buffered_ = 0;
    }
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_),
              buffer_.begin() + 56, 0);
    for (int i = 0; i < 8; ++i)
        buffer_[56 + i] =
            static_cast<std::uint8_t>(bit_length >> (56 - i * 8));
    compress(state_, buffer_.data(), 1);
    buffered_ = 0;

    Digest out;
    for (std::size_t i = 0; i < state_.size(); ++i) {
        std::uint32_t word = state_[i];
        if constexpr (std::endian::native == std::endian::little)
            word = __builtin_bswap32(word); // the digest is big-endian
        std::memcpy(out.data() + i * 4, &word, sizeof word);
    }
    return out;
}

Digest
Sha256::hash(std::span<const std::uint8_t> data)
{
    Sha256 ctx;
    ctx.update(data);
    return ctx.finish();
}

bool
constantTimeEqual(const Digest &a, const Digest &b)
{
    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        diff |= static_cast<std::uint8_t>(a[i] ^ b[i]);
    return diff == 0;
}

std::string
toHex(const Digest &d)
{
    static const char *hex = "0123456789abcdef";
    std::string out;
    out.reserve(d.size() * 2);
    for (std::uint8_t byte : d) {
        out.push_back(hex[byte >> 4]);
        out.push_back(hex[byte & 0xf]);
    }
    return out;
}

} // namespace nasd::crypto
