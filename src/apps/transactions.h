/**
 * @file
 * Synthetic retail sales transactions.
 *
 * Stands in for the 300 MB of sales records the paper mines
 * (Section 5.2). Records are fixed-size, items are drawn from a
 * heavy-tailed (Zipf) popularity distribution with planted frequent
 * pairs so association-rule mining has something to find, and records
 * never straddle the 2 MB chunk boundaries the parallel miner assigns
 * to clients.
 */
#ifndef NASD_APPS_TRANSACTIONS_H_
#define NASD_APPS_TRANSACTIONS_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace nasd::apps {

// The codec stores and loads the record's little-endian fields with
// plain memcpy, which is only the on-disk byte order on a
// little-endian host.
static_assert(std::endian::native == std::endian::little,
              "transaction records are encoded in host byte order");

/**
 * Fixed on-disk record layout: every field little-endian at a fixed
 * byte offset, zero padding from kPadOffset to kBytes.
 */
struct TransactionRecord
{
    static constexpr std::size_t kMaxItems = 12;
    static constexpr std::size_t kBytes = 64;

    static constexpr std::size_t kTxnIdOffset = 0;
    static constexpr std::size_t kStoreIdOffset = 8;
    static constexpr std::size_t kItemCountOffset = 12;
    static constexpr std::size_t kItemsOffset = 13;
    static constexpr std::size_t kPadOffset =
        kItemsOffset + kMaxItems * sizeof(std::uint32_t);

    static_assert(kPadOffset <= kBytes);

    using Items = std::array<std::uint32_t, kMaxItems>;

    std::uint64_t txn_id = 0;
    std::uint32_t store_id = 0;
    std::uint8_t item_count = 0;
    Items items{};
};

/** The chunk unit the parallel miner distributes (2 MB). */
inline constexpr std::uint64_t kChunkBytes = 2 * 1024 * 1024;

/** Records per chunk (records never straddle chunks). */
inline constexpr std::uint64_t kRecordsPerChunk =
    kChunkBytes / TransactionRecord::kBytes;

/** Encode one record into exactly kBytes at @p out. */
void encodeRecord(const TransactionRecord &record,
                  std::span<std::uint8_t> out);

/**
 * Decode one record from kBytes at @p in. The item count is clamped
 * to kMaxItems (see decodeItems()).
 */
TransactionRecord decodeRecord(std::span<const std::uint8_t> in);

/**
 * Copy the item slots of the encoded record at @p in into @p out and
 * return its item count, clamped to kMaxItems so that a corrupt count
 * byte never indexes past the slots. This is the one place the count
 * byte is read; decodeRecord() and the counting kernels go through it.
 */
inline std::size_t
decodeItems(std::span<const std::uint8_t> in, TransactionRecord::Items &out)
{
    NASD_ASSERT(in.size() >= TransactionRecord::kBytes);
    std::memcpy(out.data(), in.data() + TransactionRecord::kItemsOffset,
                sizeof(out));
    return std::min<std::size_t>(in[TransactionRecord::kItemCountOffset],
                                 TransactionRecord::kMaxItems);
}

/** Configuration of the synthetic dataset. */
struct DatasetParams
{
    std::uint32_t catalog_items = 1000; ///< distinct item ids
    double zipf_theta = 0.8;            ///< item popularity skew
    std::uint32_t min_items = 3;
    std::uint32_t max_items = TransactionRecord::kMaxItems;
    /// Probability a transaction contains the planted frequent pair
    /// (items 1 and 2), giving the miner a strong rule to discover.
    double planted_pair_rate = 0.25;
    std::uint64_t seed = 42;
};

/** Deterministic generator of transaction chunks. */
class TransactionGenerator
{
  public:
    explicit TransactionGenerator(DatasetParams params);

    /**
     * Generate chunk @p index (2 MB of records). Chunks are
     * independent: chunk data depends only on (seed, index), so any
     * client can regenerate any chunk for verification.
     */
    std::vector<std::uint8_t> chunk(std::uint64_t index) const;

    const DatasetParams &params() const { return params_; }

  private:
    DatasetParams params_;
    util::ZipfSampler zipf_;
};

} // namespace nasd::apps

#endif // NASD_APPS_TRANSACTIONS_H_
