/**
 * @file
 * Unit tests for SHA-256 (FIPS vectors, hardware against portable
 * compression), HMAC-SHA256 (RFC 4231 vectors, keyed contexts), the
 * NASD key hierarchy, and the capability encodings and request digests
 * built on them.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "crypto/sha256.h"
#include "nasd/capability.h"
#include "util/codec.h"
#include "util/rng.h"

namespace nasd::crypto {
namespace {

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return {s.begin(), s.end()};
}

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(toHex(Sha256::hash({})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
              "7852b855");
}

TEST(Sha256, Abc)
{
    const auto data = bytes("abc");
    EXPECT_EQ(toHex(Sha256::hash(data)),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    const auto data =
        bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
    EXPECT_EQ(toHex(Sha256::hash(data)),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
              "19db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 ctx;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        ctx.update(chunk);
    EXPECT_EQ(toHex(ctx.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39cc"
              "c7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    const auto data = bytes("The quick brown fox jumps over the lazy dog");
    Sha256 ctx;
    // Feed in awkward pieces to exercise buffering.
    for (std::size_t i = 0; i < data.size(); i += 7) {
        const std::size_t n = std::min<std::size_t>(7, data.size() - i);
        ctx.update(std::span<const std::uint8_t>(data.data() + i, n));
    }
    EXPECT_EQ(toHex(ctx.finish()), toHex(Sha256::hash(data)));
}

TEST(Sha256, ExactBlockBoundary)
{
    const std::string s(64, 'x');
    const auto data = bytes(s);
    Sha256 a;
    a.update(data);
    Sha256 b;
    b.update(std::span<const std::uint8_t>(data.data(), 64));
    EXPECT_EQ(toHex(a.finish()), toHex(b.finish()));
}

TEST(Sha256, ResetReuses)
{
    Sha256 ctx;
    ctx.update(bytes("garbage"));
    (void)ctx.finish();
    ctx.reset();
    ctx.update(bytes("abc"));
    EXPECT_EQ(toHex(ctx.finish()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
}

TEST(Sha256, ShaNiCompressionMatchesPortable)
{
#if defined(__x86_64__)
    if (!shaNiAvailable())
        GTEST_SKIP() << "CPU has no SHA extensions";
    util::Rng rng(2024);
    std::vector<std::uint8_t> data(4 * 64);
    for (int trial = 0; trial < 200; ++trial) {
        Sha256State state;
        for (auto &word : state)
            word = static_cast<std::uint32_t>(rng.next());
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());
        const std::size_t blocks = 1 + rng.below(4);
        Sha256State portable = state;
        Sha256State hardware = state;
        compressPortable(portable, data.data(), blocks);
        compressShaNi(hardware, data.data(), blocks);
        ASSERT_EQ(hardware, portable) << "trial " << trial;
    }
#else
    GTEST_SKIP() << "SHA extensions are x86-64 only";
#endif
}

Key
keyFromBytes(std::uint8_t fill, std::size_t count)
{
    Key k{};
    for (std::size_t i = 0; i < count && i < k.size(); ++i)
        k[i] = fill;
    return k;
}

TEST(Hmac, Rfc4231Case1)
{
    // Key = 20 bytes of 0x0b, data = "Hi There". Our Key type is 32
    // bytes zero-padded, which per RFC 2104 zero-pads keys to the block
    // size anyway, so the MAC matches the RFC vector.
    const Key key = keyFromBytes(0x0b, 20);
    const auto data = bytes("Hi There");
    EXPECT_EQ(toHex(HmacSha256::mac(key, data)),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c"
              "2e32cff7");
}

TEST(Hmac, Rfc4231Case3)
{
    // Key = 20 bytes of 0xaa, data = 50 bytes of 0xdd.
    const Key key = keyFromBytes(0xaa, 20);
    const std::vector<std::uint8_t> data(50, 0xdd);
    EXPECT_EQ(toHex(HmacSha256::mac(key, data)),
              "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514"
              "ced565fe");
}

TEST(Hmac, KeyMatters)
{
    const auto data = bytes("payload");
    const auto mac1 = HmacSha256::mac(keyFromBytes(1, 32), data);
    const auto mac2 = HmacSha256::mac(keyFromBytes(2, 32), data);
    EXPECT_NE(toHex(mac1), toHex(mac2));
}

TEST(Hmac, DataMatters)
{
    const Key key = keyFromBytes(5, 32);
    const auto mac1 = HmacSha256::mac(key, bytes("a"));
    const auto mac2 = HmacSha256::mac(key, bytes("b"));
    EXPECT_NE(toHex(mac1), toHex(mac2));
}

TEST(Hmac, UpdateValueLittleEndian)
{
    const Key key = keyFromBytes(9, 32);
    HmacSha256 a(key);
    a.updateValue<std::uint32_t>(0x04030201);
    HmacSha256 b(key);
    const std::uint8_t raw[] = {1, 2, 3, 4};
    b.update(raw);
    EXPECT_EQ(toHex(a.finish()), toHex(b.finish()));
}

/** HMAC straight from its definition in RFC 2104, with plain SHA-256
 *  contexts and no precomputed key state. */
Digest
referenceHmac(const Key &key, std::span<const std::uint8_t> data)
{
    std::array<std::uint8_t, 64> ipad{};
    std::array<std::uint8_t, 64> opad{};
    for (std::size_t i = 0; i < 64; ++i) {
        const std::uint8_t k = i < key.size() ? key[i] : 0;
        ipad[i] = static_cast<std::uint8_t>(k ^ 0x36);
        opad[i] = static_cast<std::uint8_t>(k ^ 0x5c);
    }
    Sha256 inner;
    inner.update(ipad);
    inner.update(data);
    const Digest inner_digest = inner.finish();
    Sha256 outer;
    outer.update(opad);
    outer.update(inner_digest);
    return outer.finish();
}

TEST(Hmac, KeyedContextReusedOverManyMessages)
{
    // RFC 4231 cases 1-4 (keys of at most 32 bytes, zero-padded).
    Key jefe{};
    std::memcpy(jefe.data(), "Jefe", 4);
    Key counting{};
    for (std::uint8_t i = 0; i < 25; ++i)
        counting[i] = static_cast<std::uint8_t>(i + 1);
    struct Vector
    {
        Key key;
        std::vector<std::uint8_t> data;
        const char *mac;
    };
    const std::vector<Vector> vectors = {
        {keyFromBytes(0x0b, 20), bytes("Hi There"),
         "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
        {jefe, bytes("what do ya want for nothing?"),
         "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
        {keyFromBytes(0xaa, 20), std::vector<std::uint8_t>(50, 0xdd),
         "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
        {counting, std::vector<std::uint8_t>(50, 0xcd),
         "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
    };

    std::vector<HmacKey> keyed;
    for (const auto &v : vectors)
        keyed.emplace_back(v.key);
    // Interleave the keys and vary the message length across the
    // one- and two-block boundaries: each context must keep returning
    // the RFC digest and agree with a from-scratch HMAC.
    util::Rng rng(4231);
    for (int round = 0; round < 50; ++round) {
        for (std::size_t i = 0; i < vectors.size(); ++i) {
            EXPECT_EQ(toHex(keyed[i].mac(vectors[i].data)), vectors[i].mac)
                << "vector " << i << " round " << round;
            EXPECT_EQ(keyed[i].mac(vectors[i].data),
                      HmacSha256::mac(vectors[i].key, vectors[i].data));
            std::vector<std::uint8_t> msg(rng.below(200));
            for (auto &b : msg)
                b = static_cast<std::uint8_t>(rng.next());
            ASSERT_EQ(keyed[i].mac(msg), referenceHmac(vectors[i].key, msg))
                << "vector " << i << " length " << msg.size();
        }
    }
}

TEST(ConstantTime, EqualAndUnequal)
{
    Digest a{};
    Digest b{};
    EXPECT_TRUE(constantTimeEqual(a, b));
    b[31] = 1;
    EXPECT_FALSE(constantTimeEqual(a, b));
}

TEST(KeyChain, DeterministicDerivation)
{
    const Key master = keyFromBytes(0x42, 32);
    KeyChain kc1(master);
    KeyChain kc2(master);
    EXPECT_EQ(kc1.driveKey(7), kc2.driveKey(7));
    EXPECT_EQ(kc1.workingKey(7, 3, WorkingKeyKind::kBlack, 0),
              kc2.workingKey(7, 3, WorkingKeyKind::kBlack, 0));
}

TEST(KeyChain, LevelsAreDistinct)
{
    KeyChain kc(keyFromBytes(0x42, 32));
    EXPECT_NE(kc.driveKey(1), kc.driveKey(2));
    EXPECT_NE(kc.partitionKey(1, 1), kc.partitionKey(1, 2));
    EXPECT_NE(kc.partitionKey(1, 1), kc.driveKey(1));
    EXPECT_NE(kc.workingKey(1, 1, WorkingKeyKind::kGold, 0),
              kc.workingKey(1, 1, WorkingKeyKind::kBlack, 0));
}

TEST(KeyChain, EpochRotationChangesWorkingKey)
{
    KeyChain kc(keyFromBytes(0x42, 32));
    EXPECT_NE(kc.workingKey(1, 1, WorkingKeyKind::kGold, 0),
              kc.workingKey(1, 1, WorkingKeyKind::kGold, 1));
}

TEST(KeyChain, MemoizedWorkingKeyMatchesFreshDerivation)
{
    const Key master = keyFromBytes(0x42, 32);
    KeyChain memo(master);
    const Key black5 = memo.workingKey(9, 2, WorkingKeyKind::kBlack, 5);
    // Served again from the memo, and equal to what a chain that never
    // derived it before computes.
    EXPECT_EQ(memo.workingKey(9, 2, WorkingKeyKind::kBlack, 5), black5);
    EXPECT_EQ(KeyChain(master).workingKey(9, 2, WorkingKeyKind::kBlack, 5),
              black5);
    // Each other argument selects a different key, memoized apart.
    const Key black6 = memo.workingKey(9, 2, WorkingKeyKind::kBlack, 6);
    const Key gold5 = memo.workingKey(9, 2, WorkingKeyKind::kGold, 5);
    EXPECT_NE(black6, black5);
    EXPECT_NE(gold5, black5);
    EXPECT_NE(memo.workingKey(9, 3, WorkingKeyKind::kBlack, 5), black5);
    EXPECT_NE(memo.workingKey(8, 2, WorkingKeyKind::kBlack, 5), black5);
    EXPECT_EQ(black6,
              KeyChain(master).workingKey(9, 2, WorkingKeyKind::kBlack, 6));
    EXPECT_EQ(gold5,
              KeyChain(master).workingKey(9, 2, WorkingKeyKind::kGold, 5));
    EXPECT_EQ(memo.workingKey(9, 2, WorkingKeyKind::kBlack, 5), black5);
}

TEST(KeyChain, DifferentMastersDisjoint)
{
    KeyChain a(keyFromBytes(1, 32));
    KeyChain b(keyFromBytes(2, 32));
    EXPECT_NE(a.driveKey(1), b.driveKey(1));
}

// ----------------------------------------------- capability digests

/** Every field non-zero and distinct, so a misplaced byte shows. */
CapabilityPublic
samplePublic()
{
    CapabilityPublic pub;
    pub.drive_id = 0x0102030405060708ull;
    pub.partition = 0x1122;
    pub.object_id = 0xa1a2a3a4a5a6a7a8ull;
    pub.approved_version = 0xdeadbeef;
    pub.rights = 0x5a;
    pub.region_start = 4096;
    pub.region_end = 1u << 30;
    pub.expiry_ns = 0x0fedcba987654321ull;
    pub.key_epoch = 7;
    pub.key_kind = WorkingKeyKind::kBlack;
    return pub;
}

Key
sampleKey()
{
    Key k{};
    for (std::size_t i = 0; i < k.size(); ++i)
        k[i] = static_cast<std::uint8_t>(i * 7 + 1);
    return k;
}

TEST(CapabilityDigest, FixedEncodingMatchesEncoderLayout)
{
    const CapabilityPublic pub = samplePublic();
    std::vector<std::uint8_t> expected;
    util::Encoder enc(expected);
    enc.put<std::uint64_t>(pub.drive_id);
    enc.put<std::uint16_t>(pub.partition);
    enc.put<std::uint64_t>(pub.object_id);
    enc.put<std::uint32_t>(pub.approved_version);
    enc.put<std::uint8_t>(pub.rights);
    enc.put<std::uint64_t>(pub.region_start);
    enc.put<std::uint64_t>(pub.region_end);
    enc.put<std::uint64_t>(pub.expiry_ns);
    enc.put<std::uint32_t>(pub.key_epoch);
    enc.put<std::uint8_t>(static_cast<std::uint8_t>(pub.key_kind));
    const auto encoded = pub.encode();
    ASSERT_EQ(encoded.size(), expected.size());
    EXPECT_TRUE(std::equal(encoded.begin(), encoded.end(), expected.begin()));

    // Digests of the heap-vector encoding and the per-field request
    // digest, pinned before either became a fixed array.
    EXPECT_EQ(toHex(Sha256::hash(encoded)),
              "8f5b6dfc81a3a924744383f44e39232466832ac8692f46dea7296688816191a9");
    const Digest private_key = capabilityMac(HmacKey(sampleKey()), pub);
    EXPECT_EQ(toHex(private_key),
              "282a450671aebb238f287a117f1d06f3e6d86e7f8de58faa033f332303237365");
    const RequestParams params{OpCode::kWriteData, 0x1122,
                               0xa1a2a3a4a5a6a7a8ull, 16384, 65536};
    EXPECT_EQ(toHex(requestMac(HmacKey(private_key), params, 42)),
              "6d992b8ee821ac9361aab4903fde01ffe400eb2c4dda8b981b2e568bbce5afea");
}

/** The drive's check: re-derive the private portion from the public
 *  one and compare the request digest. */
bool
driveAccepts(const KeyChain &chain, const RequestCredential &cred,
             const RequestParams &params)
{
    const Digest private_key = capabilityMac(
        chain.workingMac(cred.pub.drive_id, cred.pub.partition,
                         cred.pub.key_kind, cred.pub.key_epoch),
        cred.pub);
    return constantTimeEqual(
        requestMac(HmacKey(private_key), params, cred.nonce),
        cred.request_digest);
}

TEST(CapabilityDigest, RebindRekeysRequestDigests)
{
    const Key master = keyFromBytes(0x42, 32);
    const CapabilityIssuer issuer(master, 3);
    const KeyChain drive_chain(master);
    CapabilityPublic pub;
    pub.object_id = 77;
    pub.rights = kRightRead;
    CredentialFactory factory(issuer.mint(pub));
    const RequestParams params{OpCode::kReadData, 0, 77, 0, 8192};
    ASSERT_TRUE(driveAccepts(drive_chain, factory.forRequest(params), params));

    // A refreshed capability under a rotated key epoch: the factory's
    // requests must verify under it, which needs the keyed context of
    // the new private portion, not the old one.
    pub.key_epoch = 1;
    factory.rebind(issuer.mint(pub));
    for (int i = 0; i < 3; ++i) {
        const RequestCredential cred = factory.forRequest(params);
        EXPECT_EQ(cred.pub.key_epoch, 1u);
        EXPECT_TRUE(driveAccepts(drive_chain, cred, params));
    }
}

TEST(KeyChain, WorkingMacIsTheWorkingKeyKeyed)
{
    const KeyChain chain(keyFromBytes(0x42, 32));
    const auto data = bytes("capability public portion");
    const HmacKey &keyed =
        chain.workingMac(4, 1, WorkingKeyKind::kGold, 2);
    EXPECT_EQ(keyed.mac(data),
              HmacSha256::mac(
                  chain.workingKey(4, 1, WorkingKeyKind::kGold, 2), data));
    // Memoized: the same context every time.
    EXPECT_EQ(&chain.workingMac(4, 1, WorkingKeyKind::kGold, 2), &keyed);
}

} // namespace
} // namespace nasd::crypto
