#include "sparse/canonical.hpp"

#include "common/check.hpp"

namespace cumf {

namespace {

/// Counts held at [1, n] become bucket starts.
void prefix_sum(std::vector<nnz_t>& offsets) {
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }
}

/// After a scatter that ran each bucket's start as its cursor, offsets[i]
/// holds bucket i + 1's start; one shift restores the starts.
void unshift(std::vector<nnz_t>& offsets) {
  for (std::size_t i = offsets.size() - 1; i > 0; --i) {
    offsets[i] = offsets[i - 1];
  }
  offsets[0] = 0;
}

/// Pass 1: a stable counting sort of `entries` by column into `t`, each
/// column holding its rows and values in input order. Counts each row's
/// entries into row_ptr, which ends as the row starts.
void by_column(std::span<const Rating> entries, index_t rows, index_t cols,
               CsrArrays& t, std::vector<nnz_t>& row_ptr) {
  row_ptr.assign(static_cast<std::size_t>(rows) + 1, 0);
  t.ptr.assign(static_cast<std::size_t>(cols) + 1, 0);
  for (const Rating& e : entries) {
    CUMF_EXPECTS(e.u < rows && e.v < cols, "rating index out of bounds");
    ++row_ptr[e.u + 1];
    ++t.ptr[e.v + 1];
  }
  prefix_sum(row_ptr);
  prefix_sum(t.ptr);
  t.idx.resize(entries.size());
  t.val.resize(entries.size());
  for (const Rating& e : entries) {
    const nnz_t at = t.ptr[e.v]++;
    t.idx[at] = e.u;
    t.val[at] = e.r;
  }
  unshift(t.ptr);
}

/// Where pass 2 writes: CSR arrays, or Rating entries in place.
struct CsrSink {
  index_t* idx;
  real_t* val;
  index_t col(nnz_t at) const { return idx[at]; }
  void put(nnz_t at, index_t /*u*/, index_t v, real_t r) const {
    idx[at] = v;
    val[at] = r;
  }
  void move(nnz_t to, nnz_t from) const {
    idx[to] = idx[from];
    val[to] = val[from];
  }
};

struct CooSink {
  Rating* entries;
  index_t col(nnz_t at) const { return entries[at].v; }
  void put(nnz_t at, index_t u, index_t v, real_t r) const {
    entries[at] = Rating{u, v, r};
  }
  void move(nnz_t to, nnz_t from) const { entries[to] = entries[from]; }
};

/// Pass 2: a stable counting sort by row of the column buckets `t` into
/// `sink`, rows starting at row_ptr. Columns are visited in ascending
/// order, so each row fills in column order and a duplicated coordinate's
/// entries arrive back to back in input order: each later one overwrites
/// the one before. Rows then close up over the gaps that leaves, and
/// row_ptr ends as the canonical offsets. Returns the entries kept.
template <typename Sink>
nnz_t by_row(const CsrArrays& t, std::vector<nnz_t>& row_ptr, Sink sink) {
  const std::size_t rows = row_ptr.size() - 1;
  const std::size_t cols = t.ptr.size() - 1;
  std::vector<nnz_t> end(row_ptr.begin(), row_ptr.end() - 1);
  bool dropped = false;
  for (std::size_t v = 0; v < cols; ++v) {
    const auto col = static_cast<index_t>(v);
    for (nnz_t k = t.ptr[v]; k < t.ptr[v + 1]; ++k) {
      const index_t u = t.idx[k];
      nnz_t at = end[u];
      if (at != row_ptr[u] && sink.col(at - 1) == col) {
        --at;  // the same coordinate, written just before: the latest wins
        dropped = true;
      } else {
        end[u] = at + 1;
      }
      sink.put(at, u, col, t.val[k]);
    }
  }
  if (!dropped) {
    return row_ptr[rows];
  }
  nnz_t out = 0;
  for (std::size_t u = 0; u < rows; ++u) {
    const nnz_t lo = row_ptr[u];
    row_ptr[u] = out;
    for (nnz_t k = lo; k < end[u]; ++k) {
      sink.move(out++, k);
    }
  }
  row_ptr[rows] = out;
  return out;
}

}  // namespace

bool is_canonical(std::span<const Rating> entries) noexcept {
  for (std::size_t i = 1; i < entries.size(); ++i) {
    const Rating& a = entries[i - 1];
    const Rating& b = entries[i];
    if (a.u > b.u || (a.u == b.u && a.v >= b.v)) {
      return false;
    }
  }
  return true;
}

void canonicalize(std::span<const Rating> entries, index_t rows,
                  index_t cols, CsrArrays& out, CsrArrays& scratch) {
  if (is_canonical(entries)) {
    out.ptr.assign(static_cast<std::size_t>(rows) + 1, 0);
    for (const Rating& e : entries) {
      CUMF_EXPECTS(e.u < rows && e.v < cols, "rating index out of bounds");
      ++out.ptr[e.u + 1];
    }
    prefix_sum(out.ptr);
    out.idx.resize(entries.size());
    out.val.resize(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out.idx[i] = entries[i].v;
      out.val[i] = entries[i].r;
    }
    return;
  }
  by_column(entries, rows, cols, scratch, out.ptr);
  out.idx.resize(entries.size());
  out.val.resize(entries.size());
  const nnz_t kept =
      by_row(scratch, out.ptr, CsrSink{out.idx.data(), out.val.data()});
  out.idx.resize(kept);
  out.val.resize(kept);
}

void canonicalize(std::vector<Rating>& entries, index_t rows, index_t cols) {
  if (is_canonical(entries)) {
    return;
  }
  CsrArrays t;
  std::vector<nnz_t> row_ptr;
  by_column(entries, rows, cols, t, row_ptr);
  entries.resize(by_row(t, row_ptr, CooSink{entries.data()}));
}

void transpose(std::span<const nnz_t> ptr, std::span<const index_t> idx,
               std::span<const real_t> val, index_t cols, CsrArrays& out) {
  out.ptr.assign(static_cast<std::size_t>(cols) + 1, 0);
  for (const index_t v : idx) {
    ++out.ptr[v + 1];
  }
  prefix_sum(out.ptr);
  out.idx.resize(idx.size());
  out.val.resize(idx.size());
  const std::size_t rows = ptr.size() - 1;
  for (std::size_t u = 0; u < rows; ++u) {
    for (nnz_t k = ptr[u]; k < ptr[u + 1]; ++k) {
      const nnz_t at = out.ptr[idx[k]]++;
      out.idx[at] = static_cast<index_t>(u);  // ascending: rows in order
      out.val[at] = val[k];
    }
  }
  unshift(out.ptr);
}

}  // namespace cumf
