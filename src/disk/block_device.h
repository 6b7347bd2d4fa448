/**
 * @file
 * Abstract block device interface.
 *
 * Everything that stores fixed-size blocks — a single mechanical disk,
 * a striped set of disks — implements this. Simulated time and host
 * bytes travel on separate paths (DESIGN.md §5, "Data plane"):
 *  - readTimed()/writeTimed() are coroutines that consume the device's
 *    simulated time and move no bytes;
 *  - peek()/poke()/zero() move bytes and consume no simulated time;
 *  - read()/write() compose the two: a write lands its bytes at accept
 *    time, then pays its time; a read pays its time, then copies the
 *    bytes out at completion.
 */
#ifndef NASD_DISK_BLOCK_DEVICE_H_
#define NASD_DISK_BLOCK_DEVICE_H_

#include <cstdint>
#include <span>

#include "sim/task.h"
#include "util/attribution.h"

namespace nasd::disk {

/** Asynchronous fixed-block storage device. */
class BlockDevice
{
  public:
    virtual ~BlockDevice() = default;

    /** Bytes per block (sector). */
    virtual std::uint32_t blockSize() const = 0;

    /** Device capacity in blocks. */
    virtual std::uint64_t numBlocks() const = 0;

    /**
     * Charge the simulated time of reading @p count blocks starting at
     * @p block without copying any bytes out. When @p attr is set, the
     * device charges its queue waits and service phases (bus,
     * mechanism) to it.
     */
    virtual sim::Task<void> readTimed(std::uint64_t block,
                                      std::uint32_t count,
                                      util::OpAttribution *attr = nullptr) = 0;

    /**
     * Charge the simulated time of writing @p count blocks starting at
     * @p block; the caller has already landed the bytes with poke() or
     * zero(). With write-behind enabled the task completes when the
     * device has accepted the data, not when media is updated. @p attr
     * as for readTimed(). The task references no caller buffer, so it
     * can be spawned and outlive its caller.
     */
    virtual sim::Task<void> writeTimed(std::uint64_t block,
                                       std::uint32_t count,
                                       util::OpAttribution *attr = nullptr) = 0;

    /**
     * Read @p count blocks starting at @p block into @p out: readTimed(),
     * then the bytes as they are at completion.
     * @pre out.size() == count * blockSize().
     */
    sim::Task<void> read(std::uint64_t block, std::uint32_t count,
                         std::span<std::uint8_t> out,
                         util::OpAttribution *attr = nullptr);

    /**
     * Write @p count blocks starting at @p block from @p data: the bytes
     * land at once (a queued write carrying an older snapshot must not
     * complete after a newer update and roll it back), then
     * writeTimed().
     * @pre data.size() == count * blockSize().
     */
    sim::Task<void> write(std::uint64_t block, std::uint32_t count,
                          std::span<const std::uint8_t> data,
                          util::OpAttribution *attr = nullptr);

    /** Wait until all accepted writes have reached the media. */
    virtual sim::Task<void> flush() = 0;

    /**
     * Zero-time raw byte access (simulation plumbing, not part of the
     * modeled interface): copy bytes out of the backing store without
     * charging simulated time. Higher layers use this for data they
     * have already paid for (their own cache hits).
     */
    virtual void peek(std::uint64_t byte_offset,
                      std::span<std::uint8_t> out) const = 0;

    /** Zero-time raw byte update; see peek(). */
    virtual void poke(std::uint64_t byte_offset,
                      std::span<const std::uint8_t> data) = 0;

    /** Zero-time fill of [byte_offset, byte_offset+length) with zeros;
     *  see peek(). Never-written space already reads as zeros, so this
     *  costs host memory only where bytes were written before. */
    virtual void zero(std::uint64_t byte_offset, std::uint64_t length) = 0;

    /** Total capacity in bytes. */
    std::uint64_t
    capacityBytes() const
    {
        return numBlocks() * blockSize();
    }
};

} // namespace nasd::disk

#endif // NASD_DISK_BLOCK_DEVICE_H_
