/**
 * @file
 * HMAC-SHA256 keyed message digest (RFC 2104 / [Bellare96]).
 *
 * This is the "keyed message digest" the NASD paper uses to make
 * capabilities unforgeable: the private portion of a capability is
 * HMAC(drive_key, public portion), and each request carries
 * HMAC(private portion, request parameters + nonce).
 *
 * HMAC hashes one block derived from the key before the message and
 * one before the inner digest. A key that MACs many messages is
 * therefore held as an HmacKey, which keeps the SHA-256 chaining words
 * after those two blocks, so each MAC of a short message costs two
 * compressions instead of four.
 */
#ifndef NASD_CRYPTO_HMAC_H_
#define NASD_CRYPTO_HMAC_H_

#include <array>
#include <cstdint>
#include <span>

#include "crypto/sha256.h"

namespace nasd::crypto {

/** A 256-bit symmetric key. */
using Key = std::array<std::uint8_t, 32>;

/**
 * A keyed HMAC-SHA256 context: the inner (key ^ ipad) and outer
 * (key ^ opad) midstates of one key, computed once. Only the two
 * 8-word states are kept, not the key or full hash contexts.
 */
class HmacKey
{
  public:
    explicit HmacKey(const Key &key);

    /** MAC of @p data under this key. */
    [[nodiscard]] Digest mac(std::span<const std::uint8_t> data) const;

  private:
    friend class HmacSha256;

    Sha256State inner_;
    Sha256State outer_;
};

/** Incremental HMAC-SHA256 context. */
class HmacSha256
{
  public:
    explicit HmacSha256(const HmacKey &key)
        : inner_(key.inner_, 1), outer_(key.outer_)
    {}

    explicit HmacSha256(const Key &key) : HmacSha256(HmacKey(key)) {}

    /** Absorb message bytes. */
    void update(std::span<const std::uint8_t> data) { inner_.update(data); }

    /** Absorb one little-endian integral value (for fixed-layout
     *  request fields). */
    template <typename T>
    void
    updateValue(T value)
    {
        std::array<std::uint8_t, sizeof(T)> bytes;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            bytes[i] = static_cast<std::uint8_t>(value >> (i * 8));
        update(bytes);
    }

    /** Finish and produce the MAC. */
    Digest finish();

    /** One-shot MAC of a single buffer. */
    static Digest mac(const Key &key, std::span<const std::uint8_t> data);

  private:
    Sha256 inner_;
    Sha256State outer_;
};

/** Interpret a digest as a key (for key derivation chains). */
Key digestToKey(const Digest &d);

} // namespace nasd::crypto

#endif // NASD_CRYPTO_HMAC_H_
