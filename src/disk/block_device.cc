#include "disk/block_device.h"

#include "util/logging.h"

namespace nasd::disk {

sim::Task<void>
BlockDevice::read(std::uint64_t block, std::uint32_t count,
                  std::span<std::uint8_t> out, util::OpAttribution *attr)
{
    NASD_ASSERT(out.size() == static_cast<std::size_t>(count) * blockSize());
    co_await readTimed(block, count, attr);
    peek(block * blockSize(), out);
}

sim::Task<void>
BlockDevice::write(std::uint64_t block, std::uint32_t count,
                   std::span<const std::uint8_t> data,
                   util::OpAttribution *attr)
{
    NASD_ASSERT(data.size() ==
                static_cast<std::size_t>(count) * blockSize());
    poke(block * blockSize(), data);
    co_await writeTimed(block, count, attr);
}

} // namespace nasd::disk
