/**
 * @file
 * Test helper: run one check at every dependence-mask width the core
 * is built for (VSIM_FOR_EACH_MASK_WIDTH), so a width added to the
 * core is covered without touching the tests.
 */

#ifndef VSIM_TESTS_MASK_WIDTH_HH
#define VSIM_TESTS_MASK_WIDTH_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <type_traits>

#include "vsim/core/window_types.hh"

namespace vsim::testutil
{

/**
 * Call @p check(std::integral_constant<std::size_t, Bits>{}) for every
 * built width, narrowest first; failures name the width. A generic
 * lambda recovers the width as a constant with decltype(width)::value.
 */
template <typename Check>
void
forEachMaskWidth(Check &&check)
{
#define VSIM_CHECK_WIDTH(Bits)                                            \
    {                                                                     \
        SCOPED_TRACE("mask width " #Bits);                                \
        check(std::integral_constant<std::size_t, Bits>{});               \
    }
    VSIM_FOR_EACH_MASK_WIDTH(VSIM_CHECK_WIDTH)
#undef VSIM_CHECK_WIDTH
}

} // namespace vsim::testutil

#endif // VSIM_TESTS_MASK_WIDTH_HH
