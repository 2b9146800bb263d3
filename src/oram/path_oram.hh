/**
 * @file
 * Functional Path ORAM engine (paper §3, [32]). Maintains the binary
 * tree of encrypted buckets as a flat "DRAM image" of ciphertexts, a
 * stash, and a position map. Every access reads a full path into the
 * stash, serves the request, remaps the block to a fresh random leaf,
 * and writes the path back re-encrypted — so the DRAM image after an
 * access is indistinguishable (to an observer without the key) from
 * any other access, including dummies.
 *
 * The engine exposes exactly what the attack experiments need: the
 * per-bucket ciphertext image (for the §3.2 root-bucket probe) and the
 * list of physical transactions per access (for the timing model).
 *
 * The access datapath is allocation-free in steady state: bucket
 * (de)serialization, encryption, the stash, and the transaction trace
 * all run over the per-instance PathBuffer arena and the stash's slot
 * pool. accessInto() is the zero-copy entry point; the vector-returning
 * access() is a convenience wrapper for tests and examples.
 *
 * The path plaintext arena is the only staging between the CTR pass
 * and the stash. A read walks the decrypted path's levels x Z slot
 * headers in place and copies each real slot's payload once into the
 * stash (dummies are skipped); the eviction sweep writes each placed
 * block's header and payload straight into its level's next free slot
 * and pads the rest with dummy slots. Both run BucketCodec's slot
 * reader/writers, so the wire layout has one definition and no path
 * is staged through Bucket objects (Bucket remains for checkInvariant,
 * tests and probes).
 *
 * Crypto is batched at path granularity: a path read decrypts every
 * bucket on the path with ONE CtrCipher::xcryptSegments call (each
 * bucket keeps its own nonce, so the wire format is unchanged), and a
 * write-back re-encrypts the whole path with one more — or, with a
 * PathCryptoBatch attached, defers its segments so one cross-stage
 * call retires EVERY tree's write-back of a logical access. Write-back
 * nonces and position-map remap leaves are likewise drawn through the
 * PRF's batched entry points. Stash eviction precomputes each
 * resident's deepest legal level once per access (XOR of leaf labels)
 * and buckets the sweep by level instead of rescanning the stash per
 * tree level.
 *
 * Each path is walked once: the read computes every level's bucket
 * index into the PathBuffer, and the write-back and the integrity tag
 * commit reuse that array. Before building its CTR segments the read
 * prefetches every level's Ciphertext header, then its data lines, so
 * the path's scattered cold buckets miss in parallel rather than one
 * after another.
 *
 * The access itself is phase-split: beginAccess() performs the fused
 * position-map update (PositionMapIf::update — ONE recursive access
 * per stage), reads and decrypts the old path, and returns the block's
 * stash payload for in-place mutation; finishAccess() runs the
 * eviction sweep and the write-back encrypt.
 * accessInto() composes the two phases; RecursivePathOram::Stage
 * mutates the 8-byte label between them.
 */

#ifndef TCORAM_ORAM_PATH_ORAM_HH
#define TCORAM_ORAM_PATH_ORAM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/serial.hh"
#include "crypto/ctr.hh"
#include "crypto/prf.hh"
#include "dram/memory_if.hh"
#include "oram/bucket_codec.hh"
#include "oram/oram_config.hh"
#include "oram/path_buffer.hh"
#include "oram/position_map.hh"
#include "oram/stash.hh"

namespace tcoram::dram {
class FaultInjector;
} // namespace tcoram::dram

namespace tcoram::oram {

class BucketAuthenticator;
class RecoveryEngine;

/** Operation type for an access. */
enum class Op
{
    Read,
    Write,
};

/**
 * Recursive datapath structure (RecursivePathOram). The observable
 * stats of a run are datapath-independent (the controller charges the
 * modeled geometry either way); FusedImmediate exists so the deferred
 * write-back can be differentially tested against its reference.
 */
enum class Datapath : std::uint8_t
{
    /** Fused map updates + cross-stage deferred write-back encrypt
     *  retired with one batched call per logical access (default). */
    Fused,
    /** Fused map updates, per-tree immediate write-back encrypt. Draws
     *  the identical PRF streams as Fused, so DRAM images, stashes and
     *  position maps match bit for bit — the differential reference. */
    FusedImmediate,
};

/**
 * Cross-stage deferred write-back crypto. Each tree's writePath()
 * appends its (nonce, plaintext-span, DRAM-span) segments here instead
 * of encrypting immediately; RecursivePathOram flushes ONCE at the end
 * of the logical access, so the whole access costs H+2 engine calls
 * (H+1 per-tree path-read decrypts + 1 batched write-back) instead of
 * 2·(H+1). Requires every participating tree to share one bucket-
 * encryption key (the paper's single AES key κ — per-tree PRF seeds
 * stay distinct). The deferred plaintext spans live in each tree's
 * PathBuffer arena, which is touched at most once per logical access,
 * and the segment list is reserved up front — steady-state deferral is
 * allocation-free (test-enforced).
 */
class PathCryptoBatch
{
  public:
    PathCryptoBatch(const crypto::Key128 &key, crypto::CryptoBackend backend)
        : cipher_(key, backend)
    {
    }

    /** Pre-size the segment list (sum of tree levels). */
    void reserve(std::size_t segments) { segs_.reserve(segments); }

    /** Append one tree's write-back segments; every referenced span
     *  must stay valid until flush(). */
    void
    defer(std::span<const crypto::CtrSegment> segs)
    {
        segs_.insert(segs_.end(), segs.begin(), segs.end());
    }

    /** Retire every deferred segment with ONE batched engine call
     *  (no-op, and no engine call, when nothing is deferred). */
    void
    flush()
    {
        if (segs_.empty())
            return;
        cipher_.xcryptSegments(segs_);
        segs_.clear();
        ++flushes_;
        ++epoch_;
    }

    bool empty() const { return segs_.empty(); }
    std::size_t pending() const { return segs_.size(); }
    std::size_t capacity() const { return segs_.capacity(); }
    /** Batched engine calls issued by flush() so far. */
    std::uint64_t flushes() const { return flushes_; }
    /**
     * Flush generation: advances on every non-empty flush. A tree
     * records epoch() when it defers; if the recorded value still
     * matches at its next path read, its ciphertext is not in DRAM yet
     * and it must flush first (the bucket nonces were already bumped
     * at defer time, so reading stale bytes would decode garbage).
     * The fused access cascade never trips this — every tree's defer
     * is flushed at end-of-access before that tree is touched again —
     * but out-of-band consultations (position-map reads from
     * checkInvariant, direct per-tree test access) self-heal through
     * it instead of silently corrupting the stash.
     */
    std::uint64_t epoch() const { return epoch_; }

  private:
    crypto::CtrCipher cipher_;
    std::vector<crypto::CtrSegment> segs_;
    std::uint64_t flushes_ = 0;
    std::uint64_t epoch_ = 1;
};

class PathOram
{
  public:
    /**
     * @param cfg geometry (recursion settings ignored here; see
     *        RecursivePathOram)
     * @param pos_map externally owned position map (its size must cover
     *        cfg.numBlocks)
     * @param key_seed seed for the bucket-encryption key and leaf PRF
     * @param base_addr physical base address of the tree in DRAM
     * @param backend crypto engine for bucket encryption and the PRFs
     *        (Auto = process default); explicit per-instance selection
     *        keeps concurrent ORAMs with different backends race-free
     * @param cipher_seed when set, the bucket-encryption key is derived
     *        from this seed instead of key_seed (PRF seeds still come
     *        from key_seed). RecursivePathOram shares one cipher seed
     *        across all trees so a PathCryptoBatch can retire every
     *        tree's write-back under a single key.
     */
    PathOram(const OramConfig &cfg, PositionMapIf &pos_map,
             std::uint64_t key_seed, Addr base_addr = 0,
             crypto::CryptoBackend backend = crypto::CryptoBackend::Auto,
             std::optional<std::uint64_t> cipher_seed = std::nullopt);
    ~PathOram();

    /**
     * Access block @p id over caller-owned buffers (the allocation-free
     * fast path). @p out receives the block's payload after the access
     * and must be exactly blockBytes. For Op::Write, @p data (exactly
     * blockBytes; may alias @p out) replaces the payload; for Op::Read
     * it must be empty. Either way the block is remapped and the path
     * re-encrypted.
     */
    void accessInto(BlockId id, Op op, std::span<const std::uint8_t> data,
                    std::span<std::uint8_t> out);

    /** Allocating convenience wrapper over accessInto(). */
    std::vector<std::uint8_t> access(BlockId id, Op op,
                                     const std::vector<std::uint8_t> &data = {});

    /**
     * Read phase of an access: fused-remap @p id (one
     * PositionMapIf::update — on an ORAM-backed map, ONE recursive
     * access per stage), read and decrypt the old path into the stash,
     * and return the block's payload for in-place mutation. Must be
     * paired with finishAccess(); the span dies with it. accessInto()
     * is this pair around a payload copy; RecursivePathOram::Stage
     * patches one 8-byte label between the phases.
     */
    std::span<std::uint8_t> beginAccess(BlockId id);

    /** Write phase: eviction sweep, encode, encrypt (or defer to the
     *  attached PathCryptoBatch) the path beginAccess() read. */
    void finishAccess();

    /**
     * Defer write-back encrypts to @p batch (not owned; nullptr
     * detaches). The owner must flush the batch before this tree's
     * next path operation — the deferred plaintext lives in this
     * instance's path arena. Trees with integrity enabled ignore the
     * batch and encrypt immediately (tag commit needs the ciphertext).
     */
    void attachCryptoBatch(PathCryptoBatch *batch) { batch_ = batch; }

    /** Batched crypto-engine calls this instance actually issued
     *  (init, path reads, immediate write-backs; deferred write-backs
     *  are counted by their batch's flush). */
    std::uint64_t cryptoCalls() const { return cryptoCalls_; }

    /**
     * Cumulative PRF consumption, for the per-access stream
     * invariant (tests and RecursivePathOram's debug asserts): any
     * single logical access consumes exactly `levels` write-back
     * nonces, one remap leaf, and at most one first-touch substitute —
     * whatever the datapath mode.
     */
    struct DrawStats
    {
        std::uint64_t nonces = 0;     ///< nonce-PRF values drawn
        std::uint64_t leaves = 0;     ///< remap leaves consumed
        std::uint64_t initLeaves = 0; ///< first-touch substitutes drawn
    };
    DrawStats drawStats() const
    {
        return {nonceDraws_, leafDraws_, initDraws_};
    }

    /**
     * Indistinguishable dummy access (paper §1.1.2): read and write
     * back the path to a uniformly random leaf. Allocation-free.
     */
    void dummyAccess();

    /**
     * Background eviction (oram/eviction_engine.hh): read and write
     * back the path to the caller-chosen @p leaf without touching the
     * position map or drawing a remap leaf — a pure stash-drain pass
     * whose wire traffic is identical to a dummy access. The
     * deterministic leaf lets evictions follow the engine's
     * reverse-lexicographic schedule.
     */
    void evictPath(Leaf leaf);

    /** Background evictions performed so far. */
    std::uint64_t evictionCount() const { return evictions_; }

    /** Net blocks drained from the stash by background evictions. */
    std::uint64_t blocksEvicted() const { return blocksEvicted_; }

    /** Ciphertext currently stored for bucket @p index (0 = root). */
    const crypto::Ciphertext &bucketCiphertext(std::uint64_t index) const;

    /** Physical address of bucket @p index. */
    Addr bucketAddr(std::uint64_t index) const;

    /** Transactions generated by the most recent access. */
    const AccessTrace &lastTrace() const { return buf_.trace; }

    /**
     * Leaf whose path the most recent (real or dummy) access read and
     * rewrote. For a block's first touch this is the substituted
     * uniform leaf, not the lazily-materialized stored label — the
     * integrity layer must commit the path that actually changed.
     */
    Leaf lastAccessedLeaf() const { return lastLeaf_; }

    const OramConfig &config() const { return cfg_; }
    const Stash &stash() const { return stash_; }
    std::uint64_t accessCount() const { return accesses_; }

    /**
     * Invariant check (test hook): every initialized block is either in
     * the stash or in some bucket on the path to its mapped leaf.
     * @return true when the invariant holds for all of @p ids.
     */
    bool checkInvariant(const std::vector<BlockId> &ids);

    /** Bucket index of level @p level on the path to @p leaf. */
    std::uint64_t bucketIndexOnPath(Leaf leaf, unsigned level) const;

    /**
     * Adversary action (threat model §4.3): flip one bit of a stored
     * bucket ciphertext, as a malicious server with DRAM access can.
     * The integrity layer (oram/integrity.hh) must detect this.
     */
    void tamperCiphertext(std::uint64_t bucket_index,
                          std::size_t byte_index);

    /**
     * Enable per-bucket HMAC verification with bounded-retry recovery
     * (oram/integrity.hh): every path read is copied to a scratch
     * arena, authenticated bucket by bucket, and re-read from the
     * pristine DRAM image on a tag mismatch, up to @p retry_budget
     * times (budget exhaustion is fatal-with-context — the corruption
     * is persistent, not a transient fault). Tags the whole current
     * tree image on enable (O(N) HMACs — intended for capped trees).
     */
    void enableIntegrity(std::uint64_t mac_seed,
                         unsigned retry_budget = 4);
    bool integrityEnabled() const { return auth_ != nullptr; }

    /**
     * Attach a fault source corrupting the scratch copies of path
     * reads (not owned; nullptr detaches). Only effective with
     * integrity enabled — silent corruption without a detector would
     * defeat the point of the fault model.
     */
    void attachFaultInjector(dram::FaultInjector *injector);

    /** Failed verify passes / re-reads of the most recent access. */
    std::uint32_t lastFaultsDetected() const { return lastDetected_; }
    std::uint32_t lastRetries() const { return lastRetries_; }

    /** Cumulative recovery counters (zero while integrity is off). */
    std::uint64_t faultsDetected() const;
    std::uint64_t faultsRecovered() const;
    std::uint64_t retriesIssued() const;

    /**
     * Checkpoint support: serialize/restore the full functional state
     * (DRAM image, stash, PRF counters, remap cache, first-touch
     * bits). The position map is owned by the caller and saved by it;
     * integrity tags are recomputed from the restored image rather
     * than serialized. Restore requires an identically-configured
     * instance (geometry asserted).
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    /** Batched path read: one CTR call, then unpack into the stash. */
    void readPath(Leaf leaf);
    /** readPath with per-bucket authentication and bounded retry. */
    void verifiedReadPath(Leaf leaf);
    /** The read's shared tail: decrypt buf_.segments into the path
     *  arena with one CTR call, then put every real slot into the
     *  stash (one payload copy each; dummies skipped). */
    void decryptPathIntoStash();
    /** Batched write-back: evict into the arena, one CTR call. */
    void writePath(Leaf leaf);
    /** Eviction sweep, bucketed by precomputed deepest legal level,
     *  packing every placed block and the dummy padding straight into
     *  the path arena. */
    void evictIntoPath(Leaf leaf);
    /** Fresh uniform leaf from the batched remap cache. */
    Leaf nextLeaf();
    /** Fill buf_.pathIdx with every level's bucket index on the path
     *  to @p leaf in one walk (shared by the read, the write-back and
     *  the tag commit of that path). */
    void walkPath(Leaf leaf);
    /** Issue the loads of every walked bucket's Ciphertext header,
     *  then its data lines, so the path's misses overlap. */
    void prefetchPath() const;

    OramConfig cfg_;
    PositionMapIf &posMap_;
    crypto::CtrCipher cipher_;
    crypto::Prf prf_;
    crypto::Prf leafPrf_;
    crypto::Prf initLeafPrf_;
    /** Blocks materialized so far (first-touch detection). */
    std::vector<bool> touched_;
    std::vector<std::uint64_t> leafCache_;
    std::size_t leafPos_ = 0;
    Stash stash_;
    BucketCodec codec_;
    Addr baseAddr_;
    std::vector<crypto::Ciphertext> dram_;
    PathBuffer buf_;
    std::uint64_t accesses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t blocksEvicted_ = 0;
    Leaf lastLeaf_ = 0;

    /** Deferred write-back sink (not owned; nullptr = immediate). */
    PathCryptoBatch *batch_ = nullptr;
    /** batch_->epoch() at this tree's last defer; equal to the live
     *  epoch iff our ciphertext is still pending (epoch 0 = never). */
    std::uint64_t deferEpoch_ = 0;
    /** Batched engine calls issued by this instance. */
    std::uint64_t cryptoCalls_ = 0;
    // PRF consumption telemetry (drawStats()); not checkpointed —
    // deltas are only meaningful within one process.
    std::uint64_t nonceDraws_ = 0;
    std::uint64_t leafDraws_ = 0;
    std::uint64_t initDraws_ = 0;
    /** Phase state: leaf of the open beginAccess(), if any. */
    bool inAccess_ = false;
    Leaf openLeaf_ = 0;

    // Fault-tolerant datapath (all null/empty until enableIntegrity).
    std::unique_ptr<BucketAuthenticator> auth_;
    std::unique_ptr<RecoveryEngine> recovery_;
    dram::FaultInjector *injector_ = nullptr; ///< not owned
    /** Scratch ciphertext copies of the path being read: faults are
     *  injected into the copy, so a retry re-reads pristine DRAM. */
    std::vector<crypto::Ciphertext> readScratch_;
    std::uint32_t lastRetries_ = 0;
    std::uint32_t lastDetected_ = 0;
};

/**
 * Recursive Path ORAM (paper §9.1.2: 3 levels of recursion, 32 B
 * recursive blocks). The data ORAM's position map is stored, packed,
 * in a smaller ORAM, whose map is stored in a yet smaller one, until
 * the final map fits on chip as a FlatPositionMap.
 */
class RecursivePathOram
{
  public:
    /**
     * @param dp datapath structure: Fused (default) shares one bucket-
     *        encryption key across trees and retires every write-back
     *        with one batched call per access; FusedImmediate is the
     *        bit-identical per-tree-encrypt reference.
     */
    RecursivePathOram(
        const OramConfig &cfg, std::uint64_t key_seed,
        crypto::CryptoBackend backend = crypto::CryptoBackend::Auto,
        Datapath dp = Datapath::Fused);
    ~RecursivePathOram();

    /** Allocation-free access; contract identical to PathOram::accessInto. */
    void accessInto(BlockId id, Op op, std::span<const std::uint8_t> data,
                    std::span<std::uint8_t> out);

    std::vector<std::uint8_t> access(BlockId id, Op op,
                                     const std::vector<std::uint8_t> &data = {});
    void dummyAccess();

    /** Background eviction pass @p g: evictPath on every tree's
     *  reverse-lexicographic schedule leaf for counter g. */
    void backgroundEvict(std::uint64_t g);

    /** Background eviction passes, summed over trees. */
    std::uint64_t evictionCount() const;

    /** Net blocks drained by background evictions, summed over trees. */
    std::uint64_t blocksEvicted() const;

    PathOram &dataOram() { return *data_; }
    const PathOram &dataOram() const { return *data_; }
    /** Number of ORAM trees (data + recursion). */
    std::size_t treeCount() const { return 1 + recursion_.size(); }

    /** Tree @p i: 0 = data, 1..H = recursion stages (innermost first —
     *  construction order; differential tests iterate all of them). */
    const PathOram &tree(std::size_t i) const;

    /**
     * Batched crypto-engine calls actually issued across all trees and
     * the deferred-flush batch. With the Fused datapath the steady-
     * state delta per logical access is exactly treeCount() + 1 (H+1
     * path-read decrypts + 1 batched write-back flush) — the H+2
     * invariant the tests pin.
     */
    std::uint64_t cryptoCalls() const;

    /** Total bytes moved by the last access across all trees. */
    std::uint64_t lastAccessBytes() const;

    /** Enable per-bucket HMAC + bounded-retry recovery on every tree
     *  (each tree's tag key is derived from @p mac_seed). */
    void enableIntegrity(std::uint64_t mac_seed, unsigned retry_budget = 4);

    /** Attach one fault source to every tree (not owned). */
    void attachFaultInjector(dram::FaultInjector *injector);

    /** Per-access and cumulative recovery counters, summed over trees. */
    std::uint32_t lastFaultsDetected() const;
    std::uint32_t lastRetries() const;
    std::uint64_t faultsDetected() const;
    std::uint64_t faultsRecovered() const;
    std::uint64_t retriesIssued() const;

    /** Checkpoint support: every tree plus the innermost flat map. */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    /** One recursion stage: an ORAM holding packed leaf labels. */
    struct Stage;

    /** Flush the deferred write-back batch (Fused mode; no-op
     *  otherwise) and debug-check the per-tree PRF draw quotas. */
    void finishLogicalAccess(bool remapping);
    /** Snapshot per-tree draw counters into drawSnap_ (debug). */
    void snapshotDraws();

    OramConfig cfg_;
    std::vector<std::unique_ptr<Stage>> recursion_; // innermost first
    std::unique_ptr<PositionMapIf> flatMap_;        // backs last stage
    std::unique_ptr<PathOram> data_;
    /** Cross-stage deferred write-back (Fused mode only). */
    std::unique_ptr<PathCryptoBatch> batch_;
    /** Per-tree draw snapshot for the debug stream invariant. */
    std::vector<PathOram::DrawStats> drawSnap_;
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_PATH_ORAM_HH
