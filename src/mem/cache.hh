/**
 * @file
 * Set-associative cache tag model with LRU replacement, dirty tracking,
 * and hit-under-fill (MSHR-style merging of outstanding misses).
 *
 * Used for the per-SM L1, the GPM-side L1.5 (paper section 5.1) and the
 * memory-side L2. Timing is supplied by the caller: lookup() classifies
 * the access, the caller resolves the downstream path, then fill()
 * installs the line with its arrival time so later accesses that race
 * the fill observe the in-flight latency instead of re-fetching.
 *
 * Hot-path layout: a probe reads one compact block per set. The block
 * is a 16-byte header (valid, dirty and tracked masks of 16 bits each,
 * and the set's recency order) followed by one 32-bit tag per way, the
 * line number; a 4-way L1 set is 32 bytes, a 16-way L2 set 80. The
 * blocks start on a 64-byte boundary, so a 4-way block never straddles
 * two host cache lines. With the 8-byte fill-ready cycle of each way in
 * a side array, a way costs 16 bytes (4-way) or 13 bytes (16-way),
 * against 32 for the record of tag, LRU stamp, ready cycle, epoch and
 * flags it replaces: `mcm-basic`'s 393,216 ways drop from 12.6 MB to
 * 5.9 MB. The ready array is read only on a hit to a tracked way.
 *
 * LRU compares recency only within one set, and only once every way is
 * valid (an invalid way is taken first, in way order). Then the set's
 * recency order, one 4-bit way index per position with the most
 * recently used in the low nibble, names the same victim per-way LRU
 * stamps would. Every hit and fill moves its way to the front with a
 * few register operations. The order's 64 bits hold 16 indices, so a
 * set has at most CacheGeometry::kMaxWays (16) ways.
 *
 * The tracked mask reproduces the old in-flight map's membership
 * semantics exactly, including the amortized reap that retires
 * long-complete records. The whole-cache flush at every kernel boundary
 * clears the masks of every set (8 bytes of each block; 65,536 L1 sets
 * on `mcm-basic`). Line numbers are stored in 32 bits, which covers
 * 512 GiB of 128-byte lines; an address past that panics rather than
 * alias.
 */

#ifndef MCMGPU_MEM_CACHE_HH
#define MCMGPU_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace mcmgpu {

/** Outcome of a tag lookup. */
enum class CacheOutcome
{
    Hit,        //!< line present and fill already complete
    HitPending, //!< line present but still in flight; ready at `ready`
    Miss,       //!< line absent
};

/** Result bundle for Cache::lookup(). */
struct CacheLookup
{
    CacheOutcome outcome = CacheOutcome::Miss;
    Cycle ready = 0; //!< valid for HitPending: when the line arrives
};

/** Victim description returned by Cache::fill(). */
struct CacheVictim
{
    bool valid = false;
    bool dirty = false;
    Addr line_addr = 0;
};

/**
 * Tag-state model of one cache level. A cache with zero capacity is
 * "disabled": lookups always miss and fills are ignored, so callers can
 * keep a uniform code path.
 */
class Cache
{
  public:
    /**
     * @param geo        capacity/associativity/line/latency; at most
     *                   CacheGeometry::kMaxWays ways
     * @param name       stats prefix
     * @param write_back if true stores mark lines dirty and evictions of
     *                   dirty lines must be written downstream; if false
     *                   the cache is write-through (never holds dirt)
     */
    Cache(const CacheGeometry &geo, const std::string &name,
          bool write_back);

    bool enabled() const { return num_sets_ > 0; }
    uint32_t lineBytes() const { return geo_.line_bytes; }
    Cycle hitLatency() const { return geo_.hit_latency; }

    /**
     * Probe the tags for the line containing @p addr at time @p now and
     * update replacement state on a hit. Stores on a write-back cache
     * mark the line dirty.
     */
    CacheLookup lookup(Addr addr, bool is_store, Cycle now);

    /**
     * Install the line containing @p addr; it becomes usable at @p ready.
     * @return victim information (caller writes back dirty victims).
     */
    CacheVictim fill(Addr addr, bool is_store, Cycle ready);

    /** Drop every line (software-coherence flush at kernel boundaries). */
    void invalidateAll();

    /** Number of currently valid lines (for tests/occupancy checks). */
    uint64_t validLines() const;

    /** Hits including hit-under-fill (cheap probe for samplers). */
    uint64_t
    hitsTotal() const
    {
        return static_cast<uint64_t>(hits_.value() +
                                     hits_pending_.value());
    }

    /** Misses so far (cheap probe for samplers). */
    uint64_t
    missesTotal() const
    {
        return static_cast<uint64_t>(misses_.value());
    }

    stats::Group &statsGroup() { return stats_; }
    const stats::Group &statsGroup() const { return stats_; }

  private:
    /** Word offsets inside a set's block of 32-bit words. */
    static constexpr uint32_t kFlagsWord = 0;   //!< valid | dirty << 16
    static constexpr uint32_t kTrackedWord = 1; //!< tracked mask
    static constexpr uint32_t kOrderWord = 2;   //!< 64-bit recency order
    static constexpr uint32_t kTagsWord = 4;    //!< one line number a way

    uint32_t *
    block(uint32_t set)
    {
        return words_.data() + base_ + static_cast<size_t>(set) * block_words_;
    }
    const uint32_t *
    block(uint32_t set) const
    {
        return words_.data() + base_ + static_cast<size_t>(set) * block_words_;
    }

    uint32_t lineNumber(Addr addr) const;
    [[noreturn]] void addressPastTag(Addr addr) const;
    uint32_t setIndex(uint32_t line) const;
    /** Way of @p b holding @p line, or ways_per_set_ when none does. */
    uint32_t findWay(const uint32_t *b, uint32_t line) const;
    void reapTracked(Cycle now);

    CacheGeometry geo_;
    bool write_back_;
    uint32_t num_sets_ = 0;
    uint32_t ways_per_set_ = 0;
    uint32_t set_mask_ = 0;      //!< num_sets_ - 1 when a power of two
    bool sets_pow2_ = false;
    uint32_t line_shift_ = 0;
    uint32_t block_words_ = 0;   //!< header plus tags, rounded to even
    size_t base_ = 0;            //!< first block's word, 64-byte aligned
    std::vector<uint32_t> words_;
    /** Fill arrival cycle of each way (set-major); read only while the
     *  way's tracked bit is set. */
    std::vector<Cycle> ready_;

    /** Ways with a live fill record; drives the amortized reap. */
    uint64_t tracked_count_ = 0;
    int64_t reap_countdown_ = 4096;
    /** Way indices that may carry a record (lazily compacted by the
     *  reap so a sweep visits candidates, not every tag). */
    std::vector<size_t> tracked_ways_;

    stats::Group stats_;
    stats::Scalar &hits_;
    stats::Scalar &misses_;
    stats::Scalar &hits_pending_;
    stats::Scalar &evictions_dirty_;
    stats::Scalar &invalidations_;
    /** Store-lookup outcomes, split out because write-through levels
     *  (L1, L1.5) probe on stores without allocating — the historical
     *  inline path dropped this result entirely. */
    stats::Scalar &write_hits_;
    stats::Scalar &write_misses_;
};

} // namespace mcmgpu

#endif // MCMGPU_MEM_CACHE_HH
