// The one canonicalizer of a coordinate-form rating matrix, behind
// RatingsCoo::sort_and_dedup, CsrMatrix::from_coo and CsrPair::from_coo.
//
// Canonical form: rows ascending, each row's columns strictly ascending,
// one entry per coordinate. A duplicated coordinate keeps its latest entry
// (the one at the highest position of the input), the rule the loaders and
// serve fold-in apply too.
//
// The order comes from two stable counting sorts, by column and then by
// row, so each row's entries come out in column order with a duplicated
// coordinate's entries adjacent and in input order: O(nnz + m + n), no
// comparison sort. The by-row pass writes each later duplicate over the
// earlier one, and rows close up over the gaps only when there were any.
// An input that is already canonical is copied straight through.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "sparse/coo.hpp"

namespace cumf {

/// A sparse matrix's rows as the three arrays CsrMatrix stores: row
/// offsets (rows + 1), then each row's column ids and values.
struct CsrArrays {
  std::vector<nnz_t> ptr;
  std::vector<index_t> idx;
  std::vector<real_t> val;
};

/// True if `entries` are in canonical order: row-major, strictly ascending.
bool is_canonical(std::span<const Rating> entries) noexcept;

/// The canonical CSR arrays of `entries`, a rows × cols matrix, into `out`.
/// `scratch` holds the by-column pass; on return its contents are spent
/// but its capacity is free to reuse (CsrPair builds the transpose in it).
void canonicalize(std::span<const Rating> entries, index_t rows,
                  index_t cols, CsrArrays& out, CsrArrays& scratch);

/// Canonicalizes `entries` (a rows × cols matrix) in place, shrinking it
/// by the dropped duplicates. Scratch: the by-column pass, O(nnz + m + n).
void canonicalize(std::vector<Rating>& entries, index_t rows, index_t cols);

/// `out` = the transpose of the CSR rows (ptr, idx, val) of a matrix with
/// `cols` columns. Each output row lists its columns (the input's row ids)
/// in ascending order; `out`'s capacity is reused.
void transpose(std::span<const nnz_t> ptr, std::span<const index_t> idx,
               std::span<const real_t> val, index_t cols, CsrArrays& out);

}  // namespace cumf
