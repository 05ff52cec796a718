/**
 * @file
 * Reference cache for the equivalence tests: the tag model exactly as
 * the simulator implemented it before the tag state was packed into
 * per-set blocks. Every way is a 32-byte record with a 64-bit LRU
 * stamp, an in-way fill-ready cycle and an epoch that makes the
 * whole-cache flush O(1). The packed `Cache` must reproduce it bit for
 * bit (CacheEquivalence in test_cache.cc): every lookup outcome and
 * ready cycle, every victim, the valid-line count and the stats dump.
 * Trimmed to what those tests call; not part of the simulator.
 */

#ifndef MCMGPU_TESTS_REFERENCE_CACHE_HH
#define MCMGPU_TESTS_REFERENCE_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/log.hh"
#include "mem/cache.hh"

namespace mcmgpu {
namespace legacy {

class Cache
{
  public:
    Cache(const CacheGeometry &geo, const std::string &name,
          bool write_back)
        : geo_(geo),
          write_back_(write_back),
          stats_(name),
          hits_(stats_.add("hits", "demand hits (fill complete)")),
          misses_(stats_.add("misses", "demand misses")),
          hits_pending_(stats_.add("hits_pending",
                                   "hits merged into a fill")),
          evictions_dirty_(stats_.add("evictions_dirty",
                                      "dirty victims written back")),
          invalidations_(stats_.add("invalidations",
                                    "whole-cache flushes")),
          write_hits_(stats_.add("write_hits",
                                 "store lookups that found the line")),
          write_misses_(stats_.add("write_misses",
                                   "store lookups that missed"))
    {
        panic_if(geo_.line_bytes == 0 ||
                 (geo_.line_bytes & (geo_.line_bytes - 1)),
                 "cache '", name, "': line size must be a power of two");
        line_mask_ = geo_.line_bytes - 1;
        line_shift_ =
            static_cast<uint32_t>(std::countr_zero(geo_.line_bytes));
        if (geo_.size_bytes > 0) {
            num_sets_ = geo_.numSets();
            panic_if(num_sets_ == 0, "cache '", name,
                     "': capacity below one set (", geo_.size_bytes,
                     " B)");
            ways_per_set_ = geo_.ways;
            sets_pow2_ = (num_sets_ & (num_sets_ - 1)) == 0;
            set_mask_ = num_sets_ - 1;
            ways_.resize(static_cast<size_t>(num_sets_) * ways_per_set_);
        }
    }

    bool enabled() const { return num_sets_ > 0; }

    CacheLookup
    lookup(Addr addr, bool is_store, Cycle now)
    {
        if (!enabled()) {
            ++misses_;
            if (is_store)
                ++write_misses_;
            return {CacheOutcome::Miss, 0};
        }

        const Addr line = lineAddr(addr);
        const uint32_t set = setIndex(line);
        Way *base = &ways_[static_cast<size_t>(set) * ways_per_set_];

        for (uint32_t w = 0; w < ways_per_set_; ++w) {
            Way &way = base[w];
            if (way.tag != line || !live(way))
                continue;
            way.last_use = ++use_clock_;
            if (is_store && write_back_)
                way.dirty = true;
            if (is_store)
                ++write_hits_;

            if (way.tracked) {
                if (way.ready > now) {
                    ++hits_pending_;
                    return {CacheOutcome::HitPending, way.ready};
                }
                // Fill observed complete: retire the record, so the line
                // counts as settled for every later probe.
                way.tracked = false;
                --tracked_count_;
            }
            ++hits_;
            return {CacheOutcome::Hit, now};
        }

        ++misses_;
        if (is_store)
            ++write_misses_;
        reapTracked(now);
        return {CacheOutcome::Miss, 0};
    }

    CacheVictim
    fill(Addr addr, bool is_store, Cycle ready)
    {
        CacheVictim victim;
        if (!enabled())
            return victim;

        const Addr line = lineAddr(addr);
        const uint32_t set = setIndex(line);
        Way *base = &ways_[static_cast<size_t>(set) * ways_per_set_];

        // If the line is already present (e.g. racing fills), just
        // refresh it.
        Way *target = nullptr;
        for (uint32_t w = 0; w < ways_per_set_; ++w) {
            if (base[w].tag == line && live(base[w])) {
                target = &base[w];
                break;
            }
        }

        // Decided here, before the victim path rewrites a stale way's
        // epoch and so makes live() read it as present.
        const bool refresh = target != nullptr;
        if (!target) {
            // Choose an invalid way, else the LRU way.
            Way *lru = &base[0];
            for (uint32_t w = 0; w < ways_per_set_; ++w) {
                Way &way = base[w];
                if (!live(way)) {
                    lru = &way;
                    break;
                }
                if (way.last_use < lru->last_use)
                    lru = &way;
            }
            if (live(*lru)) {
                victim.valid = true;
                victim.dirty = lru->dirty;
                victim.line_addr = lru->tag;
                if (lru->dirty)
                    ++evictions_dirty_;
                if (lru->tracked)
                    --tracked_count_;
            }
            // Stale-epoch or evicted either way: no record survives.
            lru->tracked = false;
            lru->epoch = epoch_;
            target = lru;
        }

        target->tag = line;
        target->valid = true;
        // A refresh keeps the line's dirt (a racing store fill's).
        target->dirty =
            (refresh && target->dirty) || (is_store && write_back_);
        target->last_use = ++use_clock_;
        if (!target->tracked) {
            target->tracked = true;
            ++tracked_count_;
            tracked_ways_.push_back(
                static_cast<size_t>(target - ways_.data()));
        }
        target->ready = ready;
        return victim;
    }

    void
    invalidateAll()
    {
        // Epoch bump: every way whose epoch now mismatches is dead.
        ++epoch_;
        if (epoch_ == 0) {
            for (auto &way : ways_) {
                way.valid = false;
                way.dirty = false;
                way.tracked = false;
                way.epoch = 0;
            }
            epoch_ = 1;
        }
        tracked_count_ = 0;
        tracked_ways_.clear();
        if (enabled())
            ++invalidations_;
    }

    uint64_t
    validLines() const
    {
        uint64_t n = 0;
        for (const auto &way : ways_) {
            if (way.valid && way.epoch == epoch_)
                ++n;
        }
        return n;
    }

    const stats::Group &statsGroup() const { return stats_; }

    /** Sweeps the amortized reap has made, so a test can show it ran. */
    uint64_t reaps() const { return reaps_; }

  private:
    struct Way
    {
        Addr tag = 0;
        uint64_t last_use = 0;
        Cycle ready = 0;     //!< fill arrival time while tracked
        uint32_t epoch = 0;  //!< live only when equal to the cache epoch
        bool valid = false;
        bool dirty = false;
        /** An in-flight-fill record exists for this way. */
        bool tracked = false;
    };

    Addr lineAddr(Addr addr) const { return addr & ~line_mask_; }

    uint32_t
    setIndex(Addr line) const
    {
        uint64_t idx = line >> line_shift_;
        idx ^= idx >> 17;
        idx *= 0x9e3779b97f4a7c15ull;
        const uint64_t h = idx >> 32;
        return static_cast<uint32_t>(sets_pow2_ ? (h & set_mask_)
                                                : (h % num_sets_));
    }

    bool live(const Way &w) const { return w.valid && w.epoch == epoch_; }

    void
    reapTracked(Cycle now)
    {
        // Bound the record set: drop records whose fill completed long
        // ago. A countdown keeps the sweep amortized O(1) per lookup
        // even when the set stays persistently large.
        if (tracked_count_ < 4096 || --reap_countdown_ > 0)
            return;
        ++reaps_;
        size_t kept = 0;
        for (size_t idx : tracked_ways_) {
            Way &w = ways_[idx];
            if (w.epoch != epoch_ || !w.tracked)
                continue; // stale list entry: record already retired
            if (w.ready <= now) {
                w.tracked = false;
                --tracked_count_;
                continue;
            }
            tracked_ways_[kept++] = idx;
        }
        tracked_ways_.resize(kept);
        reap_countdown_ = static_cast<int64_t>(tracked_count_) + 4096;
    }

    CacheGeometry geo_;
    bool write_back_;
    uint32_t num_sets_ = 0;
    uint32_t ways_per_set_ = 0;
    uint32_t set_mask_ = 0;
    bool sets_pow2_ = false;
    uint32_t line_shift_ = 0;
    Addr line_mask_ = 0;
    uint64_t use_clock_ = 0;
    uint32_t epoch_ = 1;
    std::vector<Way> ways_;

    uint64_t tracked_count_ = 0;
    int64_t reap_countdown_ = 4096;
    std::vector<size_t> tracked_ways_;
    uint64_t reaps_ = 0;

    stats::Group stats_;
    stats::Scalar &hits_;
    stats::Scalar &misses_;
    stats::Scalar &hits_pending_;
    stats::Scalar &evictions_dirty_;
    stats::Scalar &invalidations_;
    stats::Scalar &write_hits_;
    stats::Scalar &write_misses_;
};

} // namespace legacy
} // namespace mcmgpu

#endif // MCMGPU_TESTS_REFERENCE_CACHE_HH
