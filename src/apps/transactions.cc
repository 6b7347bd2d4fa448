#include "apps/transactions.h"

#include <cstring>

#include "util/logging.h"

namespace nasd::apps {

void
encodeRecord(const TransactionRecord &record, std::span<std::uint8_t> out)
{
    using R = TransactionRecord;
    NASD_ASSERT(out.size() >= R::kBytes);
    std::uint8_t *p = out.data();
    std::memcpy(p + R::kTxnIdOffset, &record.txn_id, sizeof(record.txn_id));
    std::memcpy(p + R::kStoreIdOffset, &record.store_id,
                sizeof(record.store_id));
    p[R::kItemCountOffset] = record.item_count;
    std::memcpy(p + R::kItemsOffset, record.items.data(),
                sizeof(record.items));
    std::memset(p + R::kPadOffset, 0, R::kBytes - R::kPadOffset);
}

TransactionRecord
decodeRecord(std::span<const std::uint8_t> in)
{
    using R = TransactionRecord;
    TransactionRecord record;
    record.item_count =
        static_cast<std::uint8_t>(decodeItems(in, record.items));
    std::memcpy(&record.txn_id, in.data() + R::kTxnIdOffset,
                sizeof(record.txn_id));
    std::memcpy(&record.store_id, in.data() + R::kStoreIdOffset,
                sizeof(record.store_id));
    return record;
}

TransactionGenerator::TransactionGenerator(DatasetParams params)
    : params_(params), zipf_(params.catalog_items, params.zipf_theta)
{
    NASD_ASSERT(params_.max_items <= TransactionRecord::kMaxItems);
    NASD_ASSERT(params_.min_items >= 2);
    NASD_ASSERT(params_.catalog_items >= 8);
}

std::vector<std::uint8_t>
TransactionGenerator::chunk(std::uint64_t index) const
{
    // Seed per chunk so chunks are independently regenerable.
    util::Rng rng(params_.seed * 0x9e3779b9ull + index);
    std::vector<std::uint8_t> out(kChunkBytes);

    for (std::uint64_t r = 0; r < kRecordsPerChunk; ++r) {
        TransactionRecord record;
        record.txn_id = index * kRecordsPerChunk + r;
        record.store_id = static_cast<std::uint32_t>(rng.below(100));
        const auto n = static_cast<std::uint8_t>(
            rng.between(params_.min_items, params_.max_items));
        record.item_count = n;

        std::size_t filled = 0;
        if (rng.chance(params_.planted_pair_rate) && n >= 2) {
            record.items[filled++] = 1;
            record.items[filled++] = 2;
        }
        while (filled < n) {
            record.items[filled++] =
                static_cast<std::uint32_t>(zipf_.sample(rng));
        }
        encodeRecord(record,
                     std::span<std::uint8_t>(
                         out.data() + r * TransactionRecord::kBytes,
                         TransactionRecord::kBytes));
    }
    return out;
}

} // namespace nasd::apps
