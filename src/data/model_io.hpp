// Persistence for trained factor models.
//
// Text format, versioned header:
//   cumf-model 1
//   <rows> <cols>
//   <row 0: cols floats> ...
// Two matrices (X then Θ) make a model file. Deliberately human-readable —
// the same trade LIBMF makes for its model files. Values are written as
// shortest round-trip decimals (std::to_chars) and parsed with
// std::from_chars, so the round trip is bit-exact, locale-independent, and
// survives non-finite values; a served model is exactly the trained model.
// No iostream formats or parses a value: a model renders into one buffer
// reserved up front, and both readers run one tokenizer over a fixed 64 KiB
// buffer, so reading never holds the whole file.
#pragma once

#include <iosfwd>
#include <string>

#include "linalg/dense.hpp"

namespace cumf {

void write_matrix(std::ostream& os, const Matrix& matrix);

struct FactorModel {
  Matrix x;      ///< m×f user factors
  Matrix theta;  ///< n×f item factors
};

void write_model(std::ostream& os, const FactorModel& model);
void write_model_file(const std::string& path, const FactorModel& model);

/// Throws CheckError on malformed input (bad magic, truncated data,
/// mismatched latent dimensions between the two matrices). Reads `is` in
/// buffer-sized blocks, so it may consume bytes past the model's end.
FactorModel read_model(std::istream& is);
FactorModel read_model_file(const std::string& path);

}  // namespace cumf
