#include "fs/nfs/nasd_nfs.h"

#include <algorithm>

#include "net/rpc.h"
#include "sim/sync.h"
#include "util/codec.h"
#include "util/logging.h"

namespace nasd::fs {

namespace {

constexpr std::uint64_t kControlPayload = 96;

NfsStatus
fromNasdStatus(NasdStatus status)
{
    switch (status) {
      case NasdStatus::kOk:
        return NfsStatus::kOk;
      case NasdStatus::kNoSuchObject:
      case NasdStatus::kNoSuchPartition:
        return NfsStatus::kNoEnt;
      case NasdStatus::kObjectExists:
        return NfsStatus::kExist;
      case NasdStatus::kNoSpace:
      case NasdStatus::kQuotaExceeded:
        return NfsStatus::kNoSpace;
      case NasdStatus::kBadCapability:
      case NasdStatus::kExpiredCapability:
      case NasdStatus::kVersionMismatch:
      case NasdStatus::kRightsViolation:
      case NasdStatus::kRangeViolation:
      case NasdStatus::kReplayedRequest:
        return NfsStatus::kAccess;
      default:
        return NfsStatus::kIoError;
    }
}

/**
 * Statuses a transparent capability refresh can cure: expiry (the file
 * manager re-mints happily) and a version bump (revocation that the
 * NFS consistency protocol resolves by re-fetching, see
 * RevocationForcesCapabilityRefresh). Anything else — drive failure,
 * timeout, rights violations — must surface to the caller unchanged,
 * never be masked by a silent retry.
 */
bool
staleCapability(NasdStatus status)
{
    return status == NasdStatus::kExpiredCapability ||
           status == NasdStatus::kVersionMismatch;
}

} // namespace

std::array<std::uint8_t, kFsSpecificBytes>
encodePolicyAttrs(std::uint32_t mode, std::uint32_t uid, std::uint32_t gid,
                  bool is_directory)
{
    std::array<std::uint8_t, kFsSpecificBytes> out{};
    std::vector<std::uint8_t> buf;
    util::Encoder enc(buf);
    enc.put<std::uint32_t>(mode);
    enc.put<std::uint32_t>(uid);
    enc.put<std::uint32_t>(gid);
    enc.put<std::uint8_t>(is_directory ? 1 : 0);
    std::copy(buf.begin(), buf.end(), out.begin());
    return out;
}

void
decodePolicyAttrs(const std::array<std::uint8_t, kFsSpecificBytes> &raw,
                  NfsAttr &attrs)
{
    util::Decoder dec(raw);
    attrs.mode = dec.get<std::uint32_t>();
    attrs.uid = dec.get<std::uint32_t>();
    attrs.gid = dec.get<std::uint32_t>();
    attrs.is_directory = dec.get<std::uint8_t>() != 0;
}

// ------------------------------------------------------------ file manager

NasdNfsFileManager::NasdNfsFileManager(sim::Simulator &sim,
                                       net::Network &net,
                                       net::NetNode &node,
                                       std::vector<NasdDrive *> drives,
                                       PartitionId partition)
    : sim_(sim), node_(node), drives_(std::move(drives)),
      partition_(partition)
{
    NASD_ASSERT(!drives_.empty());
    for (auto *drive : drives_) {
        issuers_.push_back(std::make_unique<CapabilityIssuer>(
            drive->config().master_key, drive->id()));
        fm_clients_.push_back(
            std::make_unique<NasdClient>(net, node_, *drive));
    }
}

ObjectVersion
NasdNfsFileManager::versionOf(const NasdNfsFh &fh) const
{
    const auto it = versions_.find(fh);
    return it == versions_.end() ? 1 : it->second;
}

Capability
NasdNfsFileManager::mintCapability(const NasdNfsFh &fh, std::uint8_t rights)
{
    CapabilityPublic pub;
    pub.partition = partition_;
    pub.object_id = fh.oid;
    pub.approved_version = versionOf(fh);
    pub.rights = rights;
    pub.expiry_ns = sim_.now() + kCapLifetimeNs;
    return issuers_[fh.drive]->mint(pub);
}

CredentialFactory
NasdNfsFileManager::fmCredential(const NasdNfsFh &fh)
{
    return CredentialFactory(mintCapability(
        fh, kRightRead | kRightWrite | kRightGetAttr | kRightSetAttr |
                kRightRemove | kRightVersion));
}

sim::Task<void>
NasdNfsFileManager::initialize(std::uint64_t partition_quota_bytes)
{
    for (auto *drive : drives_) {
        co_await drive->format();
        auto created =
            drive->store().createPartition(partition_, partition_quota_bytes);
        NASD_ASSERT(created.ok(), "partition creation failed");
    }
    // Root directory object on drive 0 (created through the FM's own
    // client so it pays the same costs as any other create).
    CapabilityPublic pub;
    pub.partition = partition_;
    pub.object_id = kPartitionControlObject;
    pub.rights = kRightCreate | kRightGetAttr;
    CredentialFactory part_cred(issuers_[0]->mint(pub));
    auto made = co_await fm_clients_[0]->create(part_cred, 0);
    NASD_ASSERT(made.ok(), "root create failed");
    root_ = NasdNfsFh{0, made.value()};
    versions_[root_] = 1;

    SetAttrRequest attrs;
    attrs.fs_specific = encodePolicyAttrs(0755, 0, 0, true);
    auto root_cred = fmCredential(root_);
    auto set = co_await fm_clients_[0]->setAttr(root_cred, attrs);
    NASD_ASSERT(set.ok(), "root attr init failed");
    co_await storeDirectory(root_, {});
}

sim::Task<NfsResult<std::vector<NasdNfsDirEntry>>>
NasdNfsFileManager::loadDirectory(NasdNfsFh dir)
{
    // The FM is the only directory writer: serve from its cache.
    const auto cached = dir_cache_.find(dir);
    if (cached != dir_cache_.end())
        co_return cached->second;

    auto cred = fmCredential(dir);
    auto attrs = co_await fm_clients_[dir.drive]->getAttr(cred);
    if (!attrs.ok())
        co_return util::Err{fromNasdStatus(attrs.error())};
    auto raw = co_await fm_clients_[dir.drive]->read(cred, 0,
                                                     attrs.value().size);
    if (!raw.ok())
        co_return util::Err{fromNasdStatus(raw.error())};

    std::vector<NasdNfsDirEntry> entries;
    util::Decoder dec(raw.value());
    while (dec.remaining() > 0) {
        NasdNfsDirEntry e;
        e.fh.drive = dec.get<std::uint32_t>();
        e.fh.oid = dec.get<std::uint64_t>();
        e.is_directory = dec.get<std::uint8_t>() != 0;
        const auto len = dec.get<std::uint8_t>();
        e.name.resize(len);
        dec.getBytes(std::span<std::uint8_t>(
            reinterpret_cast<std::uint8_t *>(e.name.data()), len));
        entries.push_back(std::move(e));
    }
    dir_cache_[dir] = entries;
    co_return entries;
}

sim::Task<NfsResult<void>>
NasdNfsFileManager::storeDirectory(NasdNfsFh dir,
                                   const std::vector<NasdNfsDirEntry> &ents)
{
    dir_cache_[dir] = ents; // write-through below
    std::vector<std::uint8_t> raw;
    util::Encoder enc(raw);
    for (const auto &e : ents) {
        enc.put<std::uint32_t>(e.fh.drive);
        enc.put<std::uint64_t>(e.fh.oid);
        enc.put<std::uint8_t>(e.is_directory ? 1 : 0);
        enc.put<std::uint8_t>(static_cast<std::uint8_t>(e.name.size()));
        enc.putBytes(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t *>(e.name.data()),
            e.name.size()));
    }
    auto cred = fmCredential(dir);
    // Truncate only when the directory shrank; growth is just a write.
    auto attrs = co_await fm_clients_[dir.drive]->getAttr(cred);
    if (attrs.ok() && attrs.value().size > raw.size()) {
        SetAttrRequest trunc;
        trunc.truncate_size = raw.size();
        auto set = co_await fm_clients_[dir.drive]->setAttr(cred, trunc);
        if (!set.ok())
            co_return util::Err{fromNasdStatus(set.error())};
    }
    if (!raw.empty()) {
        auto wrote = co_await fm_clients_[dir.drive]->write(cred, 0, raw);
        if (!wrote.ok())
            co_return util::Err{fromNasdStatus(wrote.error())};
    }
    co_return NfsResult<void>{};
}

sim::Task<NfsResult<NfsAttr>>
NasdNfsFileManager::fetchAttrs(NasdNfsFh fh)
{
    auto cred = fmCredential(fh);
    auto attrs = co_await fm_clients_[fh.drive]->getAttr(cred);
    if (!attrs.ok())
        co_return util::Err{fromNasdStatus(attrs.error())};
    NfsAttr out;
    out.size = attrs.value().size;
    out.mtime_ns = attrs.value().modify_time;
    out.ctime_ns = attrs.value().attr_modify_time;
    decodePolicyAttrs(attrs.value().fs_specific, out);
    co_return out;
}

sim::Task<NasdNfsLookupReply>
NasdNfsFileManager::serveLookup(NasdNfsFh dir, std::string name,
                                bool want_write)
{
    NasdNfsLookupReply reply;
    auto entries = co_await loadDirectory(dir);
    if (!entries.ok()) {
        reply.status = entries.error();
        co_return reply;
    }
    const auto it = std::find_if(entries.value().begin(),
                                 entries.value().end(),
                                 [&](const NasdNfsDirEntry &e) {
                                     return e.name == name;
                                 });
    if (it == entries.value().end()) {
        reply.status = NfsStatus::kNoEnt;
        co_return reply;
    }
    reply.fh = it->fh;
    auto attrs = co_await fetchAttrs(it->fh);
    if (attrs.ok())
        reply.attrs = attrs.value();

    std::uint8_t rights = kRightRead | kRightGetAttr;
    if (want_write)
        rights |= kRightWrite;
    reply.capability = mintCapability(it->fh, rights);
    ++control_ops_;
    co_return reply;
}

sim::Task<NasdNfsLookupReply>
NasdNfsFileManager::serveCreate(NasdNfsFh dir, std::string name)
{
    NasdNfsLookupReply reply;
    auto entries = co_await loadDirectory(dir);
    if (!entries.ok()) {
        reply.status = entries.error();
        co_return reply;
    }
    for (const auto &e : entries.value()) {
        if (e.name == name) {
            reply.status = NfsStatus::kExist;
            co_return reply;
        }
    }

    // Round-robin placement across drives.
    const std::uint32_t target = next_placement_++ % drives_.size();
    CapabilityPublic pub;
    pub.partition = partition_;
    pub.object_id = kPartitionControlObject;
    pub.rights = kRightCreate;
    CredentialFactory part_cred(issuers_[target]->mint(pub));
    auto made = co_await fm_clients_[target]->create(part_cred, 0);
    if (!made.ok()) {
        reply.status = fromNasdStatus(made.error());
        co_return reply;
    }
    const NasdNfsFh fh{target, made.value()};
    versions_[fh] = 1;

    SetAttrRequest attrs;
    attrs.fs_specific = encodePolicyAttrs(0644, 0, 0, false);
    auto cred = fmCredential(fh);
    (void)co_await fm_clients_[target]->setAttr(cred, attrs);

    auto updated = entries.value();
    updated.push_back(NasdNfsDirEntry{name, fh, false});
    auto stored = co_await storeDirectory(dir, updated);
    if (!stored.ok()) {
        reply.status = stored.error();
        co_return reply;
    }

    reply.fh = fh;
    reply.attrs.mode = 0644;
    reply.capability = mintCapability(
        fh, kRightRead | kRightWrite | kRightGetAttr);
    ++control_ops_;
    co_return reply;
}

sim::Task<NasdNfsLookupReply>
NasdNfsFileManager::serveMkdir(NasdNfsFh dir, std::string name)
{
    NasdNfsLookupReply reply = co_await serveCreate(dir, name);
    if (reply.status != NfsStatus::kOk)
        co_return reply;
    // Mark it a directory and fix the parent entry.
    SetAttrRequest attrs;
    attrs.fs_specific = encodePolicyAttrs(0755, 0, 0, true);
    auto cred = fmCredential(reply.fh);
    (void)co_await fm_clients_[reply.fh.drive]->setAttr(cred, attrs);
    reply.attrs.is_directory = true;
    reply.attrs.mode = 0755;

    auto entries = co_await loadDirectory(dir);
    if (entries.ok()) {
        for (auto &e : entries.value()) {
            if (e.fh == reply.fh)
                e.is_directory = true;
        }
        (void)co_await storeDirectory(dir, entries.value());
    }
    co_return reply;
}

sim::Task<NasdNfsStatusReply>
NasdNfsFileManager::serveRemove(NasdNfsFh dir, std::string name)
{
    NasdNfsStatusReply reply;
    auto entries = co_await loadDirectory(dir);
    if (!entries.ok()) {
        reply.status = entries.error();
        co_return reply;
    }
    auto updated = entries.value();
    const auto it = std::find_if(updated.begin(), updated.end(),
                                 [&](const NasdNfsDirEntry &e) {
                                     return e.name == name;
                                 });
    if (it == updated.end()) {
        reply.status = NfsStatus::kNoEnt;
        co_return reply;
    }
    const NasdNfsFh fh = it->fh;
    if (it->is_directory) {
        auto children = co_await loadDirectory(fh);
        if (children.ok() && !children.value().empty()) {
            reply.status = NfsStatus::kNotEmpty;
            co_return reply;
        }
    }
    auto cred = fmCredential(fh);
    auto removed = co_await fm_clients_[fh.drive]->remove(cred);
    if (!removed.ok()) {
        reply.status = fromNasdStatus(removed.error());
        co_return reply;
    }
    versions_.erase(fh);
    dir_cache_.erase(fh);
    updated.erase(it);
    auto stored = co_await storeDirectory(dir, updated);
    if (!stored.ok())
        reply.status = stored.error();
    ++control_ops_;
    co_return reply;
}

sim::Task<NasdNfsReaddirReply>
NasdNfsFileManager::serveReaddir(NasdNfsFh dir)
{
    NasdNfsReaddirReply reply;
    auto entries = co_await loadDirectory(dir);
    if (!entries.ok()) {
        reply.status = entries.error();
        co_return reply;
    }
    reply.entries = std::move(entries.value());
    ++control_ops_;
    co_return reply;
}

sim::Task<NasdNfsStatusReply>
NasdNfsFileManager::serveSetPolicy(NasdNfsFh fh, std::uint32_t mode,
                                   std::uint32_t uid, std::uint32_t gid)
{
    NasdNfsStatusReply reply;
    // Read current attrs to preserve the directory bit.
    auto attrs = co_await fetchAttrs(fh);
    if (!attrs.ok()) {
        reply.status = attrs.error();
        co_return reply;
    }
    SetAttrRequest req;
    req.fs_specific =
        encodePolicyAttrs(mode, uid, gid, attrs.value().is_directory);
    auto cred = fmCredential(fh);
    auto set = co_await fm_clients_[fh.drive]->setAttr(cred, req);
    if (!set.ok())
        reply.status = fromNasdStatus(set.error());
    ++control_ops_;
    co_return reply;
}

sim::Task<NasdNfsLookupReply>
NasdNfsFileManager::serveGetCap(NasdNfsFh fh, bool want_write)
{
    NasdNfsLookupReply reply;
    reply.fh = fh;
    auto attrs = co_await fetchAttrs(fh);
    if (!attrs.ok()) {
        reply.status = attrs.error();
        co_return reply;
    }
    reply.attrs = attrs.value();
    std::uint8_t rights = kRightRead | kRightGetAttr;
    if (want_write)
        rights |= kRightWrite;
    reply.capability = mintCapability(fh, rights);
    ++control_ops_;
    co_return reply;
}

sim::Task<NasdNfsStatusReply>
NasdNfsFileManager::serveRevoke(NasdNfsFh fh)
{
    NasdNfsStatusReply reply;
    SetAttrRequest req;
    req.bump_version = true;
    auto cred = fmCredential(fh);
    auto set = co_await fm_clients_[fh.drive]->setAttr(cred, req);
    if (!set.ok()) {
        reply.status = fromNasdStatus(set.error());
        co_return reply;
    }
    versions_[fh] = set.value().version;
    ++control_ops_;
    co_return reply;
}

// ----------------------------------------------------------------- client

NasdNfsClient::NasdNfsClient(net::Network &net, net::NetNode &node,
                             NasdNfsFileManager &fm,
                             std::vector<NasdDrive *> drives,
                             NfsClientParams params)
    : net_(net), node_(node), fm_(fm), params_(params),
      window_(net.simulator(), params.window),
      window_wait_ns_(util::metrics().counter(node_.metricPrefix() +
                                              "/window_wait_ns"))
{
    for (auto *drive : drives) {
        drive_clients_.push_back(
            std::make_unique<NasdClient>(net, node_, *drive));
    }
}

sim::Task<NfsResult<CredentialFactory *>>
NasdNfsClient::capabilityFor(NasdNfsFh fh, bool write)
{
    auto it = cap_cache_.find(fh);
    if (it != cap_cache_.end() && (!write || it->second.writable))
        co_return it->second.cred.get();

    ++fm_calls_;
    auto reply = co_await net::call<NasdNfsLookupReply>(
        net_, node_, fm_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<NasdNfsLookupReply>> {
            auto r = co_await fm_.serveGetCap(fh, write);
            co_return net::RpcReply<NasdNfsLookupReply>{std::move(r), 256};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};

    CachedCap entry;
    entry.cred =
        std::make_unique<CredentialFactory>(std::move(reply.capability));
    entry.writable = write;
    auto [pos, inserted] = cap_cache_.insert_or_assign(fh, std::move(entry));
    co_return pos->second.cred.get();
}

void
NasdNfsClient::invalidateCap(NasdNfsFh fh)
{
    cap_cache_.erase(fh);
}

sim::Task<NfsResult<NasdNfsFh>>
NasdNfsClient::lookup(NasdNfsFh dir, std::string name, bool want_write)
{
    ++fm_calls_;
    auto reply = co_await net::call<NasdNfsLookupReply>(
        net_, node_, fm_.node(), kControlPayload + name.size(),
        [&]() -> sim::Task<net::RpcReply<NasdNfsLookupReply>> {
            auto r = co_await fm_.serveLookup(dir, name, want_write);
            co_return net::RpcReply<NasdNfsLookupReply>{std::move(r), 256};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};

    // Cache the piggybacked capability.
    CachedCap entry;
    entry.cred =
        std::make_unique<CredentialFactory>(std::move(reply.capability));
    entry.writable = want_write;
    cap_cache_.insert_or_assign(reply.fh, std::move(entry));
    co_return reply.fh;
}

sim::Task<NfsResult<NasdNfsFh>>
NasdNfsClient::create(NasdNfsFh dir, std::string name)
{
    ++fm_calls_;
    auto reply = co_await net::call<NasdNfsLookupReply>(
        net_, node_, fm_.node(), kControlPayload + name.size(),
        [&]() -> sim::Task<net::RpcReply<NasdNfsLookupReply>> {
            auto r = co_await fm_.serveCreate(dir, name);
            co_return net::RpcReply<NasdNfsLookupReply>{std::move(r), 256};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    CachedCap entry;
    entry.cred =
        std::make_unique<CredentialFactory>(std::move(reply.capability));
    entry.writable = true;
    cap_cache_.insert_or_assign(reply.fh, std::move(entry));
    co_return reply.fh;
}

sim::Task<NfsResult<NasdNfsFh>>
NasdNfsClient::mkdir(NasdNfsFh dir, std::string name)
{
    ++fm_calls_;
    auto reply = co_await net::call<NasdNfsLookupReply>(
        net_, node_, fm_.node(), kControlPayload + name.size(),
        [&]() -> sim::Task<net::RpcReply<NasdNfsLookupReply>> {
            auto r = co_await fm_.serveMkdir(dir, name);
            co_return net::RpcReply<NasdNfsLookupReply>{std::move(r), 256};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return reply.fh;
}

sim::Task<NfsResult<void>>
NasdNfsClient::remove(NasdNfsFh dir, std::string name)
{
    ++fm_calls_;
    auto reply = co_await net::call<NasdNfsStatusReply>(
        net_, node_, fm_.node(), kControlPayload + name.size(),
        [&]() -> sim::Task<net::RpcReply<NasdNfsStatusReply>> {
            auto r = co_await fm_.serveRemove(dir, name);
            co_return net::RpcReply<NasdNfsStatusReply>{r, 16};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return NfsResult<void>{};
}

sim::Task<NfsResult<std::vector<NasdNfsDirEntry>>>
NasdNfsClient::readdir(NasdNfsFh dir)
{
    ++fm_calls_;
    auto reply = co_await net::call<NasdNfsReaddirReply>(
        net_, node_, fm_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<NasdNfsReaddirReply>> {
            auto r = co_await fm_.serveReaddir(dir);
            const std::uint64_t payload = 40 * r.entries.size() + 16;
            co_return net::RpcReply<NasdNfsReaddirReply>{std::move(r),
                                                         payload};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return std::move(reply.entries);
}

sim::Task<NfsResult<NfsAttr>>
NasdNfsClient::getattr(NasdNfsFh fh)
{
    auto cred = co_await capabilityFor(fh, false);
    if (!cred.ok())
        co_return util::Err{cred.error()};
    auto attrs = co_await drive_clients_[fh.drive]->getAttr(*cred.value());
    if (!attrs.ok()) {
        if (!staleCapability(attrs.error()))
            co_return util::Err{fromNasdStatus(attrs.error())};
        // Stale capability: refresh once and retry.
        invalidateCap(fh);
        auto fresh = co_await capabilityFor(fh, false);
        if (!fresh.ok())
            co_return util::Err{fresh.error()};
        attrs = co_await drive_clients_[fh.drive]->getAttr(*fresh.value());
        if (!attrs.ok())
            co_return util::Err{fromNasdStatus(attrs.error())};
    }
    NfsAttr out;
    out.size = attrs.value().size;
    out.mtime_ns = attrs.value().modify_time;
    out.ctime_ns = attrs.value().attr_modify_time;
    decodePolicyAttrs(attrs.value().fs_specific, out);
    co_return out;
}

sim::Task<NfsResult<void>>
NasdNfsClient::setattr(NasdNfsFh fh, std::uint32_t mode, std::uint32_t uid,
                       std::uint32_t gid)
{
    ++fm_calls_;
    auto reply = co_await net::call<NasdNfsStatusReply>(
        net_, node_, fm_.node(), kControlPayload,
        [&]() -> sim::Task<net::RpcReply<NasdNfsStatusReply>> {
            auto r = co_await fm_.serveSetPolicy(fh, mode, uid, gid);
            co_return net::RpcReply<NasdNfsStatusReply>{r, 16};
        });
    if (reply.status != NfsStatus::kOk)
        co_return util::Err{reply.status};
    co_return NfsResult<void>{};
}

sim::Task<NfsResult<std::uint64_t>>
NasdNfsClient::readChunk(NasdNfsFh fh, std::uint64_t offset,
                         std::span<std::uint8_t> out)
{
    auto permit = co_await sim::scopedAcquire(net_.simulator(), window_);
    window_wait_ns_.add(permit.waitNs());
    auto cred = co_await capabilityFor(fh, false);
    if (!cred.ok())
        co_return util::Err{cred.error()};
    auto got = co_await drive_clients_[fh.drive]->read(*cred.value(),
                                                       offset, out);
    if (!got.ok() && staleCapability(got.error())) {
        invalidateCap(fh);
        auto fresh = co_await capabilityFor(fh, false);
        if (fresh.ok()) {
            got = co_await drive_clients_[fh.drive]->read(*fresh.value(),
                                                          offset, out);
        }
    }
    permit.release();
    if (!got.ok())
        co_return util::Err{fromNasdStatus(got.error())};
    co_return got.value();
}

sim::Task<NfsResult<std::uint64_t>>
NasdNfsClient::read(NasdNfsFh fh, std::uint64_t offset,
                    std::span<std::uint8_t> out)
{
    std::vector<sim::Task<NfsResult<std::uint64_t>>> chunks;
    std::uint64_t pos = 0;
    while (pos < out.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(params_.rsize, out.size() - pos);
        chunks.push_back(readChunk(fh, offset + pos, out.subspan(pos, n)));
        pos += n;
    }
    auto results = co_await sim::parallelGather(net_.simulator(),
                                                std::move(chunks));
    std::uint64_t total = 0;
    for (auto &r : results) {
        if (!r.ok())
            co_return util::Err{r.error()};
        total += r.value();
    }
    co_return total;
}

sim::Task<NfsResult<void>>
NasdNfsClient::writeChunk(NasdNfsFh fh, std::uint64_t offset,
                          std::span<const std::uint8_t> d)
{
    auto permit = co_await sim::scopedAcquire(net_.simulator(), window_);
    window_wait_ns_.add(permit.waitNs());
    auto cred = co_await capabilityFor(fh, true);
    if (!cred.ok())
        co_return util::Err{cred.error()};
    auto wrote =
        co_await drive_clients_[fh.drive]->write(*cred.value(), offset, d);
    if (!wrote.ok() && staleCapability(wrote.error())) {
        invalidateCap(fh);
        auto fresh = co_await capabilityFor(fh, true);
        if (fresh.ok()) {
            wrote = co_await drive_clients_[fh.drive]->write(*fresh.value(),
                                                             offset, d);
        }
    }
    permit.release();
    if (!wrote.ok())
        co_return util::Err{fromNasdStatus(wrote.error())};
    co_return NfsResult<void>{};
}

sim::Task<NfsResult<void>>
NasdNfsClient::write(NasdNfsFh fh, std::uint64_t offset,
                     std::span<const std::uint8_t> data)
{
    std::vector<sim::Task<NfsResult<void>>> chunks;
    std::uint64_t pos = 0;
    while (pos < data.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(params_.wsize, data.size() - pos);
        chunks.push_back(writeChunk(fh, offset + pos,
                                    data.subspan(pos, n)));
        pos += n;
    }
    auto results = co_await sim::parallelGather(net_.simulator(),
                                                std::move(chunks));
    for (auto &r : results) {
        if (!r.ok())
            co_return util::Err{r.error()};
    }
    co_return NfsResult<void>{};
}

} // namespace nasd::fs
