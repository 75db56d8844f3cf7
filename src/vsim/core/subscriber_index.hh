/**
 * @file
 * Subscriber lists for the verification/invalidation network
 * (§3.1/§3.2). A resolving prediction's sweep only matters to the
 * slots whose dependence masks carry the prediction's bit; the dense
 * policy sweeps nevertheless walked the whole window in program order
 * on every event wave. This index maintains, per prediction bit p, the
 * list of slots whose src[*].deps, outDeps or memDeps contain p, so a
 * sweep visits O(consumers) entries instead of O(window).
 *
 * Invariants (checked by checkInvariants, asserted under sanitizers):
 *
 *  (A) slot s appears in subs[p] exactly once iff subscribed[s] has
 *      bit p set — the list and the per-slot mask are a bijection, so
 *      a slot is never enqueued twice;
 *  (B) a busy entry with bit p set in any of its masks is subscribed
 *      to p — note() is called at every mask-gaining site, so sweeps
 *      cannot miss a consumer.
 *
 * Mask-*losing* sites (verify clears, nullification, slot free) do not
 * unsubscribe eagerly: stale entries are pruned lazily the next time
 * the bit's list is collected. This keeps the common path append-only;
 * the bijection (A) bounds each list at one entry per slot.
 *
 * The collected sweep domain is sorted by seq: the dense sweeps
 * iterate w.order (program order), and the hierarchical invalidation
 * wave reads live producer state, so visiting subscribers in any other
 * order would change which wave step a consumer reacts in.
 */

#ifndef VSIM_CORE_SUBSCRIBER_INDEX_HH
#define VSIM_CORE_SUBSCRIBER_INDEX_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "mask_ops.hh"
#include "window_types.hh"

namespace vsim::core
{

template <std::size_t Bits>
class SubscriberIndex
{
  public:
    void
    reset(int nslots)
    {
        subs_.assign(static_cast<std::size_t>(nslots), {});
        subscribed_.assign(static_cast<std::size_t>(nslots),
                           SpecMask<Bits>{});
        scratch_.clear();
        scratch_.reserve(static_cast<std::size_t>(nslots));
    }

    /** Does @p e carry bit @p pbit in any dependence mask? */
    static bool
    carries(const RsEntry<Bits> &e, std::size_t pbit)
    {
        return e.src[0].deps.test(pbit) || e.src[1].deps.test(pbit)
               || e.outDeps.test(pbit) || e.memDeps.test(pbit);
    }

    /** @p slot's masks gained (at most) the bits of @p gained. */
    void
    note(int slot, const SpecMask<Bits> &gained)
    {
        const SpecMask<Bits> &had =
            subscribed_[static_cast<std::size_t>(slot)];
#pragma GCC unroll 8
        for (std::size_t wi = 0; wi < mask::kMaskWords<Bits>; ++wi) {
            noteWord(slot, wi,
                     mask::wordAt(gained, wi) & ~mask::wordAt(had, wi));
        }
    }

    /** note() over the union of all of @p e's dependence masks. */
    void
    noteEntry(const RsEntry<Bits> &e)
    {
        if (!e.busy) // a free slot holds no live masks (slot may be -1)
            return;
        const SpecMask<Bits> &had =
            subscribed_[static_cast<std::size_t>(e.slot)];
#pragma GCC unroll 8
        for (std::size_t wi = 0; wi < mask::kMaskWords<Bits>; ++wi) {
            const std::uint64_t m = mask::wordAt(e.src[0].deps, wi)
                                    | mask::wordAt(e.src[1].deps, wi)
                                    | mask::wordAt(e.outDeps, wi)
                                    | mask::wordAt(e.memDeps, wi);
            noteWord(e.slot, wi, m & ~mask::wordAt(had, wi));
        }
    }

    /**
     * The sweep domain of prediction bit @p pbit: every live carrier,
     * sorted by seq (program order). Prunes stale subscriptions as a
     * side effect. The returned reference is invalidated by the next
     * collect()/anyOtherCarrier() call.
     */
    const std::vector<int> &
    collect(int pbit, const std::vector<RsEntry<Bits>> &window)
    {
        auto &list = subs_[static_cast<std::size_t>(pbit)];
        scratch_.clear();
        for (std::size_t i = 0; i < list.size();) {
            const int slot = list[i];
            const RsEntry<Bits> &e =
                window[static_cast<std::size_t>(slot)];
            if (e.busy && carries(e, static_cast<std::size_t>(pbit))) {
                scratch_.push_back(slot);
                ++i;
            } else {
                subscribed_[static_cast<std::size_t>(slot)].reset(
                    static_cast<std::size_t>(pbit));
                list[i] = list.back();
                list.pop_back();
            }
        }
        std::sort(scratch_.begin(), scratch_.end(),
                  [&window](int a, int b) {
                      return window[static_cast<std::size_t>(a)].seq
                             < window[static_cast<std::size_t>(b)].seq;
                  });
        return scratch_;
    }

    /**
     * Retire residue guard: does any live entry other than @p self
     * still carry bit @p pbit? Prunes stale subscriptions it passes.
     */
    bool
    anyOtherCarrier(int pbit, const std::vector<RsEntry<Bits>> &window,
                    int self)
    {
        auto &list = subs_[static_cast<std::size_t>(pbit)];
        for (std::size_t i = 0; i < list.size();) {
            const int slot = list[i];
            const RsEntry<Bits> &e =
                window[static_cast<std::size_t>(slot)];
            if (e.busy && carries(e, static_cast<std::size_t>(pbit))) {
                if (slot != self)
                    return true;
                ++i;
            } else {
                subscribed_[static_cast<std::size_t>(slot)].reset(
                    static_cast<std::size_t>(pbit));
                list[i] = list.back();
                list.pop_back();
            }
        }
        return false;
    }

    bool
    isSubscribed(int slot, int pbit) const
    {
        return subscribed_[static_cast<std::size_t>(slot)].test(
            static_cast<std::size_t>(pbit));
    }

    /**
     * Verify invariants (A) and (B) against @p window. @return false
     * (with an explanation in @p why, if given) on the first breach.
     */
    bool
    checkInvariants(const std::vector<RsEntry<Bits>> &window,
                    std::string *why = nullptr) const
    {
        const auto fail = [&](const std::string &msg) {
            if (why)
                *why = msg;
            return false;
        };
        const std::size_t nslots = subscribed_.size();
        // (A) list membership <-> subscribed bit, exactly once.
        std::vector<int> count(nslots, 0);
        for (std::size_t p = 0; p < nslots; ++p) {
            std::fill(count.begin(), count.end(), 0);
            for (int slot : subs_[p])
                ++count[static_cast<std::size_t>(slot)];
            for (std::size_t s = 0; s < nslots; ++s) {
                const int expect = subscribed_[s].test(p) ? 1 : 0;
                if (count[s] != expect) {
                    return fail("slot " + std::to_string(s)
                                + " appears " + std::to_string(count[s])
                                + "x in subs[" + std::to_string(p)
                                + "], subscribed bit is "
                                + std::to_string(expect));
                }
            }
        }
        // (B) every set dependence bit of a busy entry is subscribed.
        for (std::size_t s = 0; s < nslots; ++s) {
            const RsEntry<Bits> &e = window[s];
            if (!e.busy)
                continue;
            SpecMask<Bits> m = e.src[0].deps;
            m |= e.src[1].deps;
            m |= e.outDeps;
            m |= e.memDeps;
            const SpecMask<Bits> missing = m & ~subscribed_[s];
            if (missing.any()) {
                return fail("busy slot " + std::to_string(s)
                            + " carries bit "
                            + std::to_string(mask::findFirst(missing))
                            + " without a subscription");
            }
        }
        return true;
    }

  private:
    /**
     * Subscribe @p slot to the bits of @p fresh, word @p wi of a mask
     * (none of them subscribed yet), lowest bit first.
     */
    void
    noteWord(int slot, std::size_t wi, std::uint64_t fresh)
    {
        if (!fresh)
            return;
        mask::orWordAt(subscribed_[static_cast<std::size_t>(slot)], wi,
                       fresh);
        for (; fresh; fresh &= fresh - 1) {
            subs_[wi * 64 + static_cast<std::size_t>(
                                std::countr_zero(fresh))]
                .push_back(slot);
        }
    }

    std::vector<std::vector<int>> subs_; //!< per prediction bit
    std::vector<SpecMask<Bits>> subscribed_; //!< per slot: bits in subs_
    std::vector<int> scratch_;           //!< collect() output storage
};

/**
 * Iterate a policy sweep's domain: the collected subscriber list when
 * the core runs sparse sweeps, the full program-order window
 * otherwise.
 */
template <std::size_t Bits, typename Fn>
inline void
forEachSweepSlot(const WindowRef<Bits> &w, const std::vector<int> *sparse,
                 Fn &&fn)
{
    if (sparse) {
        for (int slot : *sparse)
            fn(slot);
    } else {
        for (int slot : w.order)
            fn(slot);
    }
}

} // namespace vsim::core

#endif // VSIM_CORE_SUBSCRIBER_INDEX_HH
