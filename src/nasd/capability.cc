#include "nasd/capability.h"

#include <type_traits>

#include "util/logging.h"

namespace nasd {

namespace {

/** Little-endian field writer into a fixed array (util::Encoder's
 *  layout, without the heap buffer). */
template <std::size_t N>
struct FixedEncoder
{
    std::array<std::uint8_t, N> bytes{};
    std::size_t size = 0;

    template <typename T>
    void
    put(T value)
    {
        static_assert(std::is_integral_v<T>);
        NASD_ASSERT(size + sizeof(T) <= N, "field past fixed encoding");
        for (std::size_t i = 0; i < sizeof(T); ++i)
            bytes[size++] = static_cast<std::uint8_t>(
                static_cast<std::uint64_t>(value) >> (i * 8));
    }
};

/** Bytes requestMac() binds: op, partition, object, offset, length,
 *  nonce. */
constexpr std::size_t kRequestMacBytes = 1 + 2 + 8 + 8 + 8 + 8;

} // namespace

std::array<std::uint8_t, CapabilityPublic::kEncodedBytes>
CapabilityPublic::encode() const
{
    FixedEncoder<kEncodedBytes> enc;
    enc.put<std::uint64_t>(drive_id);
    enc.put<std::uint16_t>(partition);
    enc.put<std::uint64_t>(object_id);
    enc.put<std::uint32_t>(approved_version);
    enc.put<std::uint8_t>(rights);
    enc.put<std::uint64_t>(region_start);
    enc.put<std::uint64_t>(region_end);
    enc.put<std::uint64_t>(expiry_ns);
    enc.put<std::uint32_t>(key_epoch);
    enc.put<std::uint8_t>(static_cast<std::uint8_t>(key_kind));
    NASD_ASSERT(enc.size == kEncodedBytes, "capability encoding size");
    return enc.bytes;
}

crypto::Digest
capabilityMac(const crypto::HmacKey &working_key,
              const CapabilityPublic &pub)
{
    return working_key.mac(pub.encode());
}

crypto::Digest
requestMac(const crypto::HmacKey &private_key, const RequestParams &params,
           std::uint64_t nonce)
{
    FixedEncoder<kRequestMacBytes> enc;
    enc.put<std::uint8_t>(static_cast<std::uint8_t>(params.op));
    enc.put<std::uint16_t>(params.partition);
    enc.put<std::uint64_t>(params.object_id);
    enc.put<std::uint64_t>(params.offset);
    enc.put<std::uint64_t>(params.length);
    enc.put<std::uint64_t>(nonce);
    NASD_ASSERT(enc.size == kRequestMacBytes, "request digest size");
    return private_key.mac(enc.bytes);
}

Capability
CapabilityIssuer::mint(CapabilityPublic pub) const
{
    pub.drive_id = drive_id_;
    Capability cap;
    cap.pub = pub;
    cap.private_key = capabilityMac(
        chain_.workingMac(drive_id_, pub.partition, pub.key_kind,
                          pub.key_epoch),
        pub);
    return cap;
}

RequestCredential
CredentialFactory::forRequest(const RequestParams &params)
{
    // Process-wide nonce source: strictly increasing across every
    // factory, so no capability ever sees a repeated nonce.
    static std::uint64_t g_nonce = 0;

    RequestCredential cred;
    cred.pub = cap_.pub;
    cred.nonce = ++g_nonce;
    cred.request_digest = requestMac(request_key_, params, cred.nonce);
    return cred;
}

} // namespace nasd
