#include "crypto/keychain.h"

namespace nasd::crypto {

Key
KeyChain::derive(const Key &parent, std::uint8_t level_tag,
                 std::uint64_t id_a, std::uint64_t id_b)
{
    HmacSha256 ctx(parent);
    ctx.updateValue<std::uint8_t>(level_tag);
    ctx.updateValue<std::uint64_t>(id_a);
    ctx.updateValue<std::uint64_t>(id_b);
    return digestToKey(ctx.finish());
}

Key
KeyChain::driveKey(std::uint64_t drive_id) const
{
    return derive(master_, 1, drive_id, 0);
}

Key
KeyChain::partitionKey(std::uint64_t drive_id,
                       std::uint16_t partition_id) const
{
    return derive(driveKey(drive_id), 2, partition_id, 0);
}

Key
KeyChain::workingKey(std::uint64_t drive_id, std::uint16_t partition_id,
                     WorkingKeyKind kind, std::uint32_t epoch) const
{
    const auto [it, fresh] = working_keys_.try_emplace(
        WorkingKeyId{drive_id, partition_id, kind, epoch});
    if (fresh) {
        const auto kind_and_epoch =
            (static_cast<std::uint64_t>(kind) << 32) | epoch;
        it->second = derive(partitionKey(drive_id, partition_id), 3,
                            kind_and_epoch, 0);
    }
    return it->second;
}

} // namespace nasd::crypto
