// cg_solve<half> and pcg_solve<half>: the CG solvers of linalg/cg.hpp
// instantiated on binary16 storage, as the GPU kernel stores A. CG-FP16 runs
// the float instantiation on A rounded through binary16, and these are the
// bitwise oracle the tests hold it to. The two overloads below are the
// storage hooks the solver templates call; they live in namespace cumf,
// half's namespace, where argument-dependent lookup finds them.
#pragma once

#include "half/half.hpp"
#include "half/half_simd.hpp"
#include "linalg/cg.hpp"

namespace cumf {

inline float load_as_float(half v) noexcept { return static_cast<float>(v); }

/// The vectorized unpack: bitwise identical to elementwise widening.
inline simd::vf8 load8(const half* p) noexcept { return half_to_float8(p); }

}  // namespace cumf
