/**
 * @file
 * SHA-256 (FIPS 180-4).
 *
 * The paper's capability scheme needs a keyed message digest
 * [Bellare96], and its prototype targeted digest hardware for it. We
 * substitute HMAC-SHA256 (see DESIGN.md), for which this file provides
 * the hash. The compression function runs on the CPU's SHA extensions
 * (SHA-NI) when CPUID reports them, which is this host's digest
 * hardware; a portable implementation from the spec is the fallback
 * and the reference the tests compare against. Which one runs is
 * decided once at start-up and changes no digest. No external
 * dependencies.
 */
#ifndef NASD_CRYPTO_SHA256_H_
#define NASD_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace nasd::crypto {

/** A 256-bit digest. */
using Digest = std::array<std::uint8_t, 32>;

/** The eight 32-bit chaining words of SHA-256. */
using Sha256State = std::array<std::uint32_t, 8>;

/** Incremental SHA-256 context. */
class Sha256
{
  public:
    Sha256() { reset(); }

    /**
     * Resume from @p midstate, the chaining words after absorbing
     * @p absorbed_blocks whole 64-byte blocks (see midstate()). This is
     * how a keyed HMAC context skips re-hashing its key pad.
     */
    Sha256(const Sha256State &midstate, std::uint64_t absorbed_blocks)
        : state_(midstate), total_bytes_(absorbed_blocks * 64)
    {}

    /** Reset to the initial hash state. */
    void reset();

    /** Absorb @p data. May be called repeatedly. */
    void update(std::span<const std::uint8_t> data);

    /** Convenience overload for text. */
    void
    update(std::string_view text)
    {
        update(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t *>(text.data()),
            text.size()));
    }

    /** The chaining words so far. @pre whole blocks were absorbed. */
    const Sha256State &midstate() const;

    /** Finish and produce the digest. The context must be reset() to
     *  be reused afterwards. */
    Digest finish();

    /** One-shot convenience: digest of a single buffer. */
    static Digest hash(std::span<const std::uint8_t> data);

  private:
    Sha256State state_;
    std::array<std::uint8_t, 64> buffer_{};
    std::size_t buffered_ = 0;
    std::uint64_t total_bytes_ = 0;
};

/**
 * The SHA-256 compression function, applied to @p blocks consecutive
 * 64-byte blocks at @p data. Sha256 calls the hardware form when
 * shaNiAvailable() and the portable form otherwise; both are public so
 * tests can check one against the other.
 */
void compressPortable(Sha256State &state, const std::uint8_t *data,
                      std::size_t blocks);

/** True when this CPU has the SHA extensions (and the SSE4.1 the
 *  hardware compression also uses). Probed once at start-up. */
bool shaNiAvailable();

#if defined(__x86_64__)
/** Hardware compression (sha256rnds2/msg1/msg2). @pre shaNiAvailable() */
void compressShaNi(Sha256State &state, const std::uint8_t *data,
                   std::size_t blocks);
#endif

/** Constant-time comparison of two digests (thwarts timing probes). */
bool constantTimeEqual(const Digest &a, const Digest &b);

/** Render a digest as lowercase hex (for logs and tests). */
std::string toHex(const Digest &d);

} // namespace nasd::crypto

#endif // NASD_CRYPTO_SHA256_H_
