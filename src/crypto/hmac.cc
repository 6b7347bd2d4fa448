#include "crypto/hmac.h"

#include <algorithm>

namespace nasd::crypto {

namespace {

constexpr std::uint8_t kIpad = 0x36;
constexpr std::uint8_t kOpad = 0x5c;

/** Chaining words after hashing the one block key ^ @p pad. */
Sha256State
padMidstate(const Key &key, std::uint8_t pad)
{
    // Keys are exactly one SHA-256 output (32 bytes), which is below the
    // 64-byte block size, so no pre-hashing of the key is needed.
    std::array<std::uint8_t, 64> block{};
    std::copy(key.begin(), key.end(), block.begin());
    for (auto &b : block)
        b ^= pad;
    Sha256 ctx;
    ctx.update(block);
    return ctx.midstate();
}

} // namespace

HmacKey::HmacKey(const Key &key)
    : inner_(padMidstate(key, kIpad)), outer_(padMidstate(key, kOpad))
{}

Digest
HmacKey::mac(std::span<const std::uint8_t> data) const
{
    HmacSha256 ctx(*this);
    ctx.update(data);
    return ctx.finish();
}

Digest
HmacSha256::finish()
{
    const Digest inner_digest = inner_.finish();
    Sha256 outer(outer_, 1);
    outer.update(inner_digest);
    return outer.finish();
}

Digest
HmacSha256::mac(const Key &key, std::span<const std::uint8_t> data)
{
    return HmacKey(key).mac(data);
}

Key
digestToKey(const Digest &d)
{
    Key k;
    std::copy(d.begin(), d.end(), k.begin());
    return k;
}

} // namespace nasd::crypto
