#ifndef SKETCH_CS_ENSEMBLES_H_
#define SKETCH_CS_ENSEMBLES_H_

#include <cstdint>

#include "linalg/csr_matrix.h"
#include "linalg/dense_matrix.h"

namespace sketch {

class HashedRows;

/// Measurement-matrix ensembles for compressed sensing (§2).
///
/// The survey's dichotomy: dense i.i.d. matrices (Gaussian / Bernoulli)
/// achieve the optimal m = O(k log(n/k)) bound but cost O(nm) per
/// operation, while sparse binary matrices — adjacency matrices of
/// expander graphs, equivalently the matrices realized by the hashing
/// process — use m = O(k log n) with O(d) nonzeros per column and support
/// recovery in near-linear time [CM06, BGI+08, BIR08, GLPS10].

/// Sparse binary matrix: each column has exactly `ones_per_column` ones
/// placed in distinct random rows (random bipartite d-regular graph — an
/// expander w.h.p.). Entries are 1.0 (unnormalized, as in [BIR08]).
CsrMatrix MakeSparseBinaryMatrix(uint64_t rows, uint64_t cols,
                                 int ones_per_column, uint64_t seed);

/// The explicit matrix of a hashed map: `rows.depth()` blocks of
/// `rows.width()` rows; in block j, column c has the entry g_j(c) (or 1 in
/// an unsigned map) at row h_j(c).
CsrMatrix MakeHashedBlockMatrix(const HashedRows& rows, uint64_t cols);

/// Count-Sketch measurement matrix: `depth` blocks of `width` rows; in
/// each block every column has a single ±1 entry at a hashed row. This is
/// precisely the linear map c = Ax of the survey's §1, written down as a
/// matrix. rows() == depth * width.
CsrMatrix MakeCountSketchMatrix(uint64_t width, uint64_t depth, uint64_t cols,
                                uint64_t seed);

/// Count-Min measurement matrix: like the Count-Sketch matrix but all
/// entries are +1 (no signs) — the [CM06] recovery ensemble.
CsrMatrix MakeCountMinMatrix(uint64_t width, uint64_t depth, uint64_t cols,
                             uint64_t seed);

/// Dense Gaussian ensemble, N(0, 1/rows) entries [CRT06].
DenseMatrix MakeGaussianMatrix(uint64_t rows, uint64_t cols, uint64_t seed);

/// Dense Rademacher (Bernoulli ±1/sqrt(rows)) ensemble.
DenseMatrix MakeRademacherMatrix(uint64_t rows, uint64_t cols, uint64_t seed);

}  // namespace sketch

#endif  // SKETCH_CS_ENSEMBLES_H_
