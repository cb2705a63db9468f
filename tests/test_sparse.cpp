// Tests for the sparse-matrix substrate: COO, CSR/CSC, block partitioning,
// train/test splitting.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"
#include "sparse/split.hpp"

namespace cumf {
namespace {

RatingsCoo small_matrix() {
  RatingsCoo coo(4, 3);
  coo.add(2, 1, 5.0f);
  coo.add(0, 0, 1.0f);
  coo.add(0, 2, 2.0f);
  coo.add(3, 1, 4.0f);
  coo.add(1, 0, 3.0f);
  return coo;
}

RatingsCoo random_matrix(index_t m, index_t n, nnz_t nnz, std::uint64_t seed) {
  Rng rng(seed);
  RatingsCoo coo(m, n);
  std::set<std::pair<index_t, index_t>> used;
  while (coo.nnz() < nnz) {
    const auto u = static_cast<index_t>(rng.uniform_index(m));
    const auto v = static_cast<index_t>(rng.uniform_index(n));
    if (used.insert({u, v}).second) {
      coo.add(u, v, static_cast<real_t>(rng.uniform(1.0, 5.0)));
    }
  }
  return coo;
}

// ---------- COO ----------

TEST(Coo, AddValidatesBounds) {
  RatingsCoo coo(2, 2);
  EXPECT_THROW(coo.add(2, 0, 1.0f), CheckError);
  EXPECT_THROW(coo.add(0, 2, 1.0f), CheckError);
}

TEST(Coo, SortAndDedupMergesDuplicates) {
  RatingsCoo coo(3, 3);
  coo.add(1, 1, 2.0f);
  coo.add(0, 0, 1.0f);
  coo.add(1, 1, 3.0f);
  EXPECT_FALSE(coo.is_canonical());
  coo.sort_and_dedup();
  EXPECT_TRUE(coo.is_canonical());
  ASSERT_EQ(coo.nnz(), 2u);
  EXPECT_EQ(coo.entries()[1].r, 3.0f);  // the latest entry of (1, 1) wins
}

TEST(Coo, MeanValue) {
  RatingsCoo empty(2, 2);
  EXPECT_EQ(empty.mean_value(), 0.0);
  auto coo = small_matrix();
  EXPECT_NEAR(coo.mean_value(), (1 + 2 + 3 + 4 + 5) / 5.0, 1e-12);
}

// ---------- CSR ----------

TEST(Csr, FromCooMatchesBruteForce) {
  auto coo = small_matrix();
  coo.sort_and_dedup();
  const auto csr = CsrMatrix::from_coo(coo);
  EXPECT_EQ(csr.rows(), 4u);
  EXPECT_EQ(csr.cols(), 3u);
  EXPECT_EQ(csr.nnz(), 5u);
  EXPECT_EQ(csr.row_nnz(0), 2u);
  EXPECT_EQ(csr.row_nnz(1), 1u);
  EXPECT_EQ(csr.row_nnz(2), 1u);
  EXPECT_EQ(csr.row_nnz(3), 1u);
  const auto cols0 = csr.row_cols(0);
  ASSERT_EQ(cols0.size(), 2u);
  EXPECT_EQ(cols0[0], 0u);
  EXPECT_EQ(cols0[1], 2u);
  EXPECT_EQ(csr.row_vals(0)[1], 2.0f);
}

TEST(Csr, HandlesEmptyRows) {
  RatingsCoo coo(5, 2);
  coo.add(4, 1, 1.0f);
  const auto csr = CsrMatrix::from_coo(coo);
  for (index_t u = 0; u < 4; ++u) {
    EXPECT_EQ(csr.row_nnz(u), 0u);
    EXPECT_TRUE(csr.row_cols(u).empty());
  }
  EXPECT_EQ(csr.row_nnz(4), 1u);
}

TEST(Csr, TransposeRoundTripPreservesEntries) {
  auto coo = random_matrix(30, 20, 150, 1);
  coo.sort_and_dedup();
  const auto csr = CsrMatrix::from_coo(coo);
  const auto back = csr.transposed().transposed();
  EXPECT_EQ(back.row_ptr(), csr.row_ptr());
  EXPECT_EQ(back.col_idx(), csr.col_idx());
  EXPECT_EQ(back.values(), csr.values());
}

TEST(Csr, TransposeSwapsCoordinates) {
  auto coo = random_matrix(10, 15, 40, 2);
  coo.sort_and_dedup();
  const auto csr = CsrMatrix::from_coo(coo);
  const auto t = csr.transposed();
  std::map<std::pair<index_t, index_t>, real_t> orig;
  for (index_t u = 0; u < csr.rows(); ++u) {
    const auto cols = csr.row_cols(u);
    const auto vals = csr.row_vals(u);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      orig[{u, cols[k]}] = vals[k];
    }
  }
  nnz_t seen = 0;
  for (index_t v = 0; v < t.rows(); ++v) {
    const auto rows = t.row_cols(v);
    const auto vals = t.row_vals(v);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const auto it = orig.find({rows[k], v});
      ASSERT_NE(it, orig.end());
      EXPECT_EQ(it->second, vals[k]);
      ++seen;
    }
  }
  EXPECT_EQ(seen, csr.nnz());
}

TEST(Csr, ColumnsSortedWithinRows) {
  auto coo = random_matrix(25, 40, 300, 3);
  coo.sort_and_dedup();
  const auto csr = CsrMatrix::from_coo(coo);
  for (index_t u = 0; u < csr.rows(); ++u) {
    const auto cols = csr.row_cols(u);
    for (std::size_t k = 1; k < cols.size(); ++k) {
      EXPECT_LT(cols[k - 1], cols[k]);
    }
  }
}

// ---------- BlockGrid ----------

TEST(BlockGrid, EveryEntryLandsInExactlyOneBlock) {
  auto coo = random_matrix(40, 40, 400, 4);
  const BlockGrid grid(coo, 4, 4);
  nnz_t total = 0;
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      for (const Rating& e : grid.block(i, j)) {
        EXPECT_EQ(grid.row_block_of(e.u), i);
        EXPECT_EQ(grid.col_block_of(e.v), j);
        ++total;
      }
    }
  }
  EXPECT_EQ(total, coo.nnz());
}

TEST(BlockGrid, DiagonalScheduleIsConflictFreeAndComplete) {
  auto coo = random_matrix(30, 30, 200, 5);
  const BlockGrid grid(coo, 5, 5);
  const auto schedule = grid.diagonal_schedule();
  ASSERT_EQ(schedule.size(), 5u);
  std::set<std::pair<index_t, index_t>> seen;
  for (const auto& round : schedule) {
    ASSERT_EQ(round.size(), 5u);
    std::set<index_t> round_rows;
    std::set<index_t> round_cols;
    for (const auto& b : round) {
      EXPECT_TRUE(round_rows.insert(b.i).second) << "row block reused";
      EXPECT_TRUE(round_cols.insert(b.j).second) << "col block reused";
      EXPECT_TRUE(seen.insert({b.i, b.j}).second) << "block scheduled twice";
    }
  }
  EXPECT_EQ(seen.size(), 25u);
}

TEST(BlockGrid, RejectsInvalidGrids) {
  auto coo = random_matrix(10, 10, 30, 6);
  EXPECT_THROW(BlockGrid(coo, 0, 2), CheckError);
  EXPECT_THROW(BlockGrid(coo, 11, 2), CheckError);
  const BlockGrid rect(coo, 2, 3);
  EXPECT_THROW(rect.diagonal_schedule(), CheckError);
}

TEST(BlockGrid, BlockRangesPartitionIndexSpace) {
  auto coo = random_matrix(17, 23, 100, 7);  // deliberately non-divisible
  const BlockGrid grid(coo, 5, 5);
  // Each index maps to exactly one block and mapping is monotone.
  for (index_t u = 1; u < 17; ++u) {
    EXPECT_GE(grid.row_block_of(u), grid.row_block_of(u - 1));
  }
  for (index_t v = 1; v < 23; ++v) {
    EXPECT_GE(grid.col_block_of(v), grid.col_block_of(v - 1));
  }
  EXPECT_EQ(grid.row_block_of(0), 0u);
  EXPECT_EQ(grid.row_block_of(16), 4u);
}

// ---------- split ----------

TEST(Split, FractionRoughlyRespected) {
  auto coo = random_matrix(60, 50, 1500, 8);
  Rng rng(9);
  const auto split = split_holdout(coo, 0.2, rng);
  EXPECT_EQ(split.train.nnz() + split.test.nnz(), coo.nnz());
  const double frac =
      static_cast<double>(split.test.nnz()) / static_cast<double>(coo.nnz());
  EXPECT_NEAR(frac, 0.2, 0.05);
}

TEST(Split, EveryRowAndColumnKeepsATrainingEntry) {
  auto coo = random_matrix(40, 30, 400, 10);
  Rng rng(11);
  const auto split = split_holdout(coo, 0.5, rng);
  std::vector<int> row_train(40, 0);
  std::vector<int> col_train(30, 0);
  for (const Rating& e : split.train.entries()) {
    ++row_train[e.u];
    ++col_train[e.v];
  }
  std::set<index_t> rows_with_data;
  std::set<index_t> cols_with_data;
  for (const Rating& e : coo.entries()) {
    rows_with_data.insert(e.u);
    cols_with_data.insert(e.v);
  }
  for (const index_t u : rows_with_data) {
    EXPECT_GT(row_train[u], 0) << "row " << u << " lost all training data";
  }
  for (const index_t v : cols_with_data) {
    EXPECT_GT(col_train[v], 0) << "col " << v << " lost all training data";
  }
}

TEST(Split, ZeroFractionKeepsEverything) {
  auto coo = random_matrix(10, 10, 50, 12);
  Rng rng(13);
  const auto split = split_holdout(coo, 0.0, rng);
  EXPECT_EQ(split.train.nnz(), coo.nnz());
  EXPECT_EQ(split.test.nnz(), 0u);
}

TEST(Split, RejectsInvalidFraction) {
  auto coo = random_matrix(5, 5, 10, 14);
  Rng rng(15);
  EXPECT_THROW(split_holdout(coo, 1.0, rng), CheckError);
  EXPECT_THROW(split_holdout(coo, -0.1, rng), CheckError);
}


TEST(Csr, EmptyMatrixIsValid) {
  const auto csr = CsrMatrix::from_coo(RatingsCoo(5, 4));
  EXPECT_EQ(csr.nnz(), 0u);
  const auto t = csr.transposed();
  EXPECT_EQ(t.rows(), 4u);
  EXPECT_EQ(t.nnz(), 0u);
}

TEST(BlockGrid, SingleBlockHoldsEverything) {
  auto coo = random_matrix(10, 10, 40, 99);
  const BlockGrid grid(coo, 1, 1);
  EXPECT_EQ(grid.block(0, 0).size(), 40u);
  const auto schedule = grid.diagonal_schedule();
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_EQ(schedule[0].size(), 1u);
}

}  // namespace
}  // namespace cumf
