/**
 * @file
 * Contiguous circular buffer of window slot indices. The program-order
 * list (windowOrder) and the LSQ are FIFO-with-suffix-squash
 * structures: slots enter at the back at dispatch, leave at the front
 * at retire, and a squash pops the youngest suffix. std::deque paid a
 * chunk-map indirection on every sweep over them; this ring keeps the
 * indices in one power-of-two array so iteration is a pointer walk
 * with a mask, and reset() reuses the storage across runs.
 */

#ifndef VSIM_CORE_SLOT_RING_HH
#define VSIM_CORE_SLOT_RING_HH

#include <cstddef>
#include <iterator>
#include <vector>

#include "vsim/base/logging.hh"

namespace vsim::core
{

class SlotRing
{
  public:
    /** Size for @p capacity elements; discards current contents. */
    void
    reset(int capacity)
    {
        std::size_t cap = 1;
        while (cap < static_cast<std::size_t>(capacity))
            cap <<= 1;
        buf_.assign(cap, -1);
        mask_ = cap - 1;
        head_ = 0;
        size_ = 0;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    int
    front() const
    {
        VSIM_DEBUG_ASSERT(size_ > 0, "front() on empty ring");
        return buf_[head_];
    }

    int
    back() const
    {
        VSIM_DEBUG_ASSERT(size_ > 0, "back() on empty ring");
        return buf_[(head_ + size_ - 1) & mask_];
    }

    /** @p i counts from the front (oldest). */
    int
    operator[](std::size_t i) const
    {
        VSIM_DEBUG_ASSERT(i < size_, "ring index out of range");
        return buf_[(head_ + i) & mask_];
    }

    /**
     * Append @p v. @return its position in the ring's storage, which
     * stays put until @p v leaves; rankOf() turns it into an index
     * from the front.
     */
    std::size_t
    push_back(int v)
    {
        VSIM_DEBUG_ASSERT(size_ < buf_.size(), "ring overflow");
        const std::size_t pos = (head_ + size_) & mask_;
        buf_[pos] = v;
        ++size_;
        return pos;
    }

    /**
     * Index from the front (0 = oldest) of the element at storage
     * position @p pos, as push_back() returned it. Exact while that
     * element is in the ring; the subtraction wraps with the ring.
     */
    std::size_t
    rankOf(std::size_t pos) const
    {
        return (pos - head_) & mask_;
    }

    /** Storage positions (and ranks) are below this power of two. */
    std::size_t capacity() const { return buf_.size(); }

    void
    pop_front()
    {
        VSIM_DEBUG_ASSERT(size_ > 0, "pop_front() on empty ring");
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    void
    pop_back()
    {
        VSIM_DEBUG_ASSERT(size_ > 0, "pop_back() on empty ring");
        --size_;
    }

    class const_iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = int;
        using difference_type = std::ptrdiff_t;
        using pointer = const int *;
        using reference = int;

        const_iterator(const SlotRing *r, std::size_t i)
            : ring(r), pos(i)
        {}
        int operator*() const { return (*ring)[pos]; }
        const_iterator &
        operator++()
        {
            ++pos;
            return *this;
        }
        bool
        operator==(const const_iterator &o) const
        {
            return pos == o.pos;
        }
        bool
        operator!=(const const_iterator &o) const
        {
            return pos != o.pos;
        }

      private:
        const SlotRing *ring;
        std::size_t pos;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    std::vector<int> buf_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace vsim::core

#endif // VSIM_CORE_SLOT_RING_HH
