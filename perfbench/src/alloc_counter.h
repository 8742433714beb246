// Bench-side count of global operator new calls (alloc_counter.cpp
// replaces the global allocation functions in each perfbench executable).
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made by this process so far.
[[nodiscard]] std::uint64_t allocation_count();

}  // namespace perfbench
