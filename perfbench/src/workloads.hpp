// Entry points of the three workloads (one translation unit each, so the
// heavy stencil instantiations compile in parallel).
#pragma once

#include "harness.hpp"

namespace perfbench {

int run_heat2p_large(const Args& args, Result& res);
int run_lcs_long(const Args& args, Result& res);
int run_life_batch(const Args& args, Result& res);

}  // namespace perfbench
