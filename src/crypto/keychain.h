/**
 * @file
 * NASD key hierarchy [Gobioff97].
 *
 * Capabilities are protected by a small number of keys organized into a
 * four-level hierarchy:
 *
 *   master key            - held by the drive owner; never used online
 *   drive key             - per drive; manages partition keys
 *   partition key         - per partition; manages working keys
 *   working keys          - two per partition ("gold" and "black"),
 *                           used to mint capabilities; rotated by epoch
 *
 * Higher keys only manage the level below; only working keys touch the
 * request path, so compromising one bounds the damage and rotation is
 * cheap. Derivation is HMAC of a level tag and identifier under the
 * parent key, so the file manager and drive derive identical keys from
 * the shared master secret without exchanging per-capability state.
 */
#ifndef NASD_CRYPTO_KEYCHAIN_H_
#define NASD_CRYPTO_KEYCHAIN_H_

#include <cstdint>
#include <map>
#include <tuple>

#include "crypto/hmac.h"

namespace nasd::crypto {

/** Which of the two per-partition working keys to use. */
enum class WorkingKeyKind : std::uint8_t {
    kGold = 0,  ///< long-lived; for capabilities minted by the owner
    kBlack = 1, ///< short-lived; for routinely rotated capabilities
};

/** Derives the NASD four-level key hierarchy from a master secret. */
class KeyChain
{
  public:
    explicit KeyChain(const Key &master) : master_(master) {}

    /** Level 2: per-drive key. */
    Key driveKey(std::uint64_t drive_id) const;

    /** Level 3: per-partition key. */
    Key partitionKey(std::uint64_t drive_id,
                     std::uint16_t partition_id) const;

    /**
     * Level 4: working key used to mint/verify capabilities. A pure
     * function of its arguments, so each distinct key is derived once
     * and then served from a memo (a verifying drive asks for the same
     * few keys on every request).
     */
    Key workingKey(std::uint64_t drive_id, std::uint16_t partition_id,
                   WorkingKeyKind kind, std::uint32_t epoch) const;

    /**
     * The same working key as a keyed HMAC context, memoized beside
     * it, for minting and verifying capabilities. The reference stays
     * valid for the life of the chain.
     */
    const HmacKey &workingMac(std::uint64_t drive_id,
                              std::uint16_t partition_id,
                              WorkingKeyKind kind,
                              std::uint32_t epoch) const;

  private:
    static Key derive(const Key &parent, std::uint8_t level_tag,
                      std::uint64_t id_a, std::uint64_t id_b);

    using WorkingKeyId =
        std::tuple<std::uint64_t, std::uint16_t, WorkingKeyKind,
                   std::uint32_t>;

    struct WorkingKey
    {
        Key key;
        HmacKey mac;
    };

    const WorkingKey &working(std::uint64_t drive_id,
                              std::uint16_t partition_id,
                              WorkingKeyKind kind,
                              std::uint32_t epoch) const;

    Key master_;
    mutable std::map<WorkingKeyId, WorkingKey> working_keys_;
};

} // namespace nasd::crypto

#endif // NASD_CRYPTO_KEYCHAIN_H_
