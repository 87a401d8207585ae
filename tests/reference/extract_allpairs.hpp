// Test-only reference: extract::extractParasitics exactly as it first
// computed the same-layer coupling, by comparing every pair of routing
// shapes (i, j > i) in shape order.  The extraction differential suite in
// tests/extract_test.cpp requires the library's indexed search to match it
// bit for bit.  Nothing in the library links this; only tests do.
#pragma once

#include "circuit/process.hpp"
#include "extract/extract.hpp"
#include "geom/layout.hpp"

namespace amsyn::reference {

extract::ExtractionResult extractAllPairs(const geom::Layout& layout,
                                          const circuit::Process& proc);

}  // namespace amsyn::reference
