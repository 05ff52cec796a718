#include "mem/cache.hh"

#include <bit>
#include <cstring>

#include "common/log.hh"

namespace mcmgpu {

namespace {

/** The order of a fresh set: way i at position i. Positions past the
 *  set's ways hold indices no way has, so they never match. */
constexpr uint64_t kIdentityOrder = 0xfedcba9876543210ull;
constexpr uint64_t kNibbleOnes = 0x1111111111111111ull;
constexpr uint32_t kWayMask = 0xffff;

uint64_t
loadOrder(const uint32_t *b)
{
    uint64_t order;
    std::memcpy(&order, b, sizeof order);
    return order;
}

void
storeOrder(uint32_t *b, uint64_t order)
{
    std::memcpy(b, &order, sizeof order);
}

/** Move @p way to the front (low nibble) of @p order, keeping the rest
 *  in sequence. */
uint64_t
moveToFront(uint64_t order, uint32_t way)
{
    // Zero-nibble search: the lowest flagged nibble is exact (borrows
    // only flag nibbles above it), and the order holds @p way once.
    const uint64_t x = order ^ (kNibbleOnes * way);
    const uint64_t zero = (x - kNibbleOnes) & ~x & (kNibbleOnes << 3);
    const int shift = std::countr_zero(zero) & ~3; // 4 x position
    const uint64_t ahead = (uint64_t(1) << shift) - 1;
    const uint64_t upto = (ahead << 4) | 0xf;
    return (order & ~upto) | ((order & ahead) << 4) | way;
}

} // namespace

Cache::Cache(const CacheGeometry &geo, const std::string &name,
             bool write_back)
    : geo_(geo),
      write_back_(write_back),
      stats_(name),
      hits_(stats_.add("hits", "demand hits (fill complete)")),
      misses_(stats_.add("misses", "demand misses")),
      hits_pending_(stats_.add("hits_pending", "hits merged into a fill")),
      evictions_dirty_(stats_.add("evictions_dirty",
                                  "dirty victims written back")),
      invalidations_(stats_.add("invalidations", "whole-cache flushes")),
      write_hits_(stats_.add("write_hits",
                             "store lookups that found the line")),
      write_misses_(stats_.add("write_misses",
                               "store lookups that missed"))
{
    panic_if(geo_.line_bytes == 0 ||
             (geo_.line_bytes & (geo_.line_bytes - 1)),
             "cache '", name, "': line size must be a power of two");
    line_shift_ = static_cast<uint32_t>(std::countr_zero(geo_.line_bytes));
    if (geo_.size_bytes == 0)
        return;
    panic_if(geo_.ways == 0 || geo_.ways > CacheGeometry::kMaxWays,
             "cache '", name, "': ", geo_.ways, " ways; a set holds 1 to ",
             CacheGeometry::kMaxWays);
    num_sets_ = geo_.numSets();
    panic_if(num_sets_ == 0, "cache '", name,
             "': capacity below one set (", geo_.size_bytes, " B)");
    ways_per_set_ = geo_.ways;
    sets_pow2_ = (num_sets_ & (num_sets_ - 1)) == 0;
    set_mask_ = num_sets_ - 1;
    block_words_ = (kTagsWord + ways_per_set_ + 1) & ~1u;

    // 15 spare words let the first block start on a 64-byte boundary.
    words_.assign(static_cast<size_t>(num_sets_) * block_words_ + 15, 0);
    const uintptr_t at = reinterpret_cast<uintptr_t>(words_.data());
    base_ = ((64 - at % 64) % 64) / sizeof(uint32_t);
    for (uint32_t s = 0; s < num_sets_; ++s)
        storeOrder(block(s) + kOrderWord, kIdentityOrder);
    ready_.assign(static_cast<size_t>(num_sets_) * ways_per_set_, 0);
}

uint32_t
Cache::lineNumber(Addr addr) const
{
    const Addr line = addr >> line_shift_;
    if (line > UINT32_MAX) [[unlikely]]
        addressPastTag(addr);
    return static_cast<uint32_t>(line);
}

void
Cache::addressPastTag(Addr addr) const
{
    panic("cache '", stats_.name(), "': address ", addr,
          " has a line number past the 32-bit tag");
}

uint32_t
Cache::setIndex(uint32_t line) const
{
    // Hash the line index a little so power-of-two strides do not camp on
    // one set; cheap multiplicative scramble keeps this deterministic.
    uint64_t idx = line;
    idx ^= idx >> 17;
    idx *= 0x9e3779b97f4a7c15ull;
    const uint64_t h = idx >> 32;
    return static_cast<uint32_t>(sets_pow2_ ? (h & set_mask_)
                                            : (h % num_sets_));
}

uint32_t
Cache::findWay(const uint32_t *b, uint32_t line) const
{
    const uint32_t valid = b[kFlagsWord] & kWayMask;
    const uint32_t *tags = b + kTagsWord;
    uint32_t w = 0;
    while (w < ways_per_set_ && !(tags[w] == line && (valid >> w & 1)))
        ++w;
    return w;
}

void
Cache::reapTracked(Cycle now)
{
    // Bound the record set: drop records whose fill completed long ago.
    // A countdown keeps the sweep amortized O(1) per lookup even when
    // the set stays persistently large.
    size_t kept = 0;
    for (size_t idx : tracked_ways_) {
        uint32_t *b = block(static_cast<uint32_t>(idx / ways_per_set_));
        const uint32_t bit = 1u << (idx % ways_per_set_);
        if (!(b[kTrackedWord] & bit))
            continue; // stale list entry: record already retired
        if (ready_[idx] <= now) {
            b[kTrackedWord] &= ~bit;
            --tracked_count_;
            continue;
        }
        tracked_ways_[kept++] = idx;
    }
    tracked_ways_.resize(kept);
    reap_countdown_ = static_cast<int64_t>(tracked_count_) + 4096;
}

CacheLookup
Cache::lookup(Addr addr, bool is_store, Cycle now)
{
    if (!enabled()) {
        ++misses_;
        if (is_store)
            ++write_misses_;
        return {CacheOutcome::Miss, 0};
    }

    const uint32_t line = lineNumber(addr);
    const uint32_t set = setIndex(line);
    uint32_t *b = block(set);
    const uint32_t w = findWay(b, line);

    if (w < ways_per_set_) {
        const uint32_t bit = 1u << w;
        storeOrder(b + kOrderWord, moveToFront(loadOrder(b + kOrderWord), w));
        if (is_store && write_back_)
            b[kFlagsWord] |= bit << 16;
        if (is_store)
            ++write_hits_;

        if (b[kTrackedWord] & bit) {
            const Cycle ready =
                ready_[static_cast<size_t>(set) * ways_per_set_ + w];
            if (ready > now) {
                ++hits_pending_;
                return {CacheOutcome::HitPending, ready};
            }
            // Fill observed complete: retire the record, so the line
            // counts as settled for every later probe.
            b[kTrackedWord] &= ~bit;
            --tracked_count_;
        }
        ++hits_;
        return {CacheOutcome::Hit, now};
    }

    ++misses_;
    if (is_store)
        ++write_misses_;
    if (tracked_count_ >= 4096 && --reap_countdown_ <= 0)
        reapTracked(now);
    return {CacheOutcome::Miss, 0};
}

CacheVictim
Cache::fill(Addr addr, bool is_store, Cycle ready)
{
    CacheVictim victim;
    if (!enabled())
        return victim;

    const uint32_t line = lineNumber(addr);
    const uint32_t set = setIndex(line);
    uint32_t *b = block(set);
    const uint64_t order = loadOrder(b + kOrderWord);

    // If the line is already present (e.g. racing fills), just refresh
    // it: a refresh keeps the line's dirt, so a load refill racing a
    // store fill cannot drop the store's write-back.
    uint32_t w = findWay(b, line);
    const bool refresh = w != ways_per_set_;
    if (!refresh) {
        // Choose an invalid way, else the back of the recency order.
        const uint32_t invalid = ~b[kFlagsWord] & ((1u << ways_per_set_) - 1);
        if (invalid) {
            w = static_cast<uint32_t>(std::countr_zero(invalid));
        } else {
            w = static_cast<uint32_t>(order >> (4 * (ways_per_set_ - 1))) &
                0xf;
            const uint32_t bit = 1u << w;
            victim.valid = true;
            victim.dirty = (b[kFlagsWord] >> 16) & bit;
            victim.line_addr = static_cast<Addr>(b[kTagsWord + w])
                               << line_shift_;
            if (victim.dirty)
                ++evictions_dirty_;
            if (b[kTrackedWord] & bit)
                --tracked_count_;
            // Evicted: no record survives.
            b[kTrackedWord] &= ~bit;
        }
        b[kTagsWord + w] = line;
        b[kFlagsWord] |= 1u << w;
    }

    const uint32_t bit = 1u << w;
    const uint32_t dirt = is_store && write_back_ ? bit << 16 : 0;
    b[kFlagsWord] = (refresh ? b[kFlagsWord] : b[kFlagsWord] & ~(bit << 16)) |
                    dirt;
    storeOrder(b + kOrderWord, moveToFront(order, w));
    const size_t idx = static_cast<size_t>(set) * ways_per_set_ + w;
    if (!(b[kTrackedWord] & bit)) {
        b[kTrackedWord] |= bit;
        ++tracked_count_;
        tracked_ways_.push_back(idx);
    }
    ready_[idx] = ready;
    return victim;
}

void
Cache::invalidateAll()
{
    // Clear the valid, dirty and tracked masks of every set. Dead tags
    // are never compared, and the recency order counts again only once
    // every way of the set has been refilled, and so moved to the front.
    for (uint32_t s = 0; s < num_sets_; ++s) {
        uint32_t *b = block(s);
        b[kFlagsWord] = 0;
        b[kTrackedWord] = 0;
    }
    tracked_count_ = 0;
    tracked_ways_.clear();
    if (enabled())
        ++invalidations_;
}

uint64_t
Cache::validLines() const
{
    uint64_t n = 0;
    for (uint32_t s = 0; s < num_sets_; ++s)
        n += std::popcount(block(s)[kFlagsWord] & kWayMask);
    return n;
}

} // namespace mcmgpu
