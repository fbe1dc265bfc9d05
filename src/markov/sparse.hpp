// Compressed-sparse matrix engine for the CTMC solvers.
//
// The traffic today is the modulating (x, y) chain of a HAP: a few thousand
// states with a handful of transitions each (6,216 on paper_baseline's
// default box), swept thousands of times by Gauss-Seidel. Solution 1 solves
// it; Solution 0 iterates it only when its exact block elimination declines
// or its fallback chain asks for the iterative path. Solution 0's own 3-D
// lattice has its dedicated kernel in core/lattice_sweep. Two pieces live
// here:
//
//   Csr          structure-of-arrays compressed-sparse-rows storage with
//                32-bit column indices and 64-bit row offsets — half the
//                index bandwidth of a (from, to, rate) edge list, and the
//                row layout the sweep kernels stream through.
//   CsrBuilder   one-pass deduplicating build from unordered (row, col, val)
//                triples, with all scratch arenas owned by the builder so a
//                caller that constructs chains in a loop (Solution 0's box
//                growth) reuses allocations instead of re-growing them.
//
// plus the two serial kernels the steady-state solvers iterate. Everything
// here is deterministic by construction: builds and sweeps depend only on
// their inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hap::markov {

// Compressed sparse rows, structure-of-arrays. Entries of each row are in
// ascending column order with no duplicate columns (CsrBuilder merges them).
struct Csr {
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<std::uint64_t> offsets;  // rows + 1 entries
    std::vector<std::uint32_t> idx;      // nnz column indices
    std::vector<double> val;             // nnz values

    std::size_t nnz() const noexcept { return idx.size(); }

    struct Row {
        const std::uint32_t* idx;
        const double* val;
        std::size_t count;
    };
    // Row r as raw spans; r must be < rows (unchecked hot-path accessor).
    Row row(std::size_t r) const noexcept {
        const std::uint64_t begin = offsets[r];
        const std::uint64_t end = offsets[r + 1];
        return Row{idx.data() + begin, val.data() + begin,
                   static_cast<std::size_t>(end - begin)};
    }
};

// One-pass deduplicating CSR builder. Usage:
//
//   CsrBuilder b;            // reusable: arenas persist across builds
//   b.begin(rows, cols);     // validates the 32-bit index envelope
//   b.add(r, c, v);          // any order; duplicates allowed
//   b.build(csr);            // counting-scatter + per-row sort + merge
//
// Duplicate (row, col) entries are summed in insertion order (the per-row
// sort is stable), so the merged value is a deterministic function of the
// add() sequence. begin() may be called again after build() to reuse the
// builder's arenas for the next matrix; one matrix is in flight at a time.
class CsrBuilder {
public:
    // Throws std::invalid_argument when rows or cols exceed the 32-bit index
    // envelope (UINT32_MAX) — oversized state spaces must fail loudly, never
    // truncate an index.
    void begin(std::size_t rows, std::size_t cols);

    // Record one entry; bounds-checked against the begin() dimensions
    // (std::out_of_range), value must be finite (std::invalid_argument).
    void add(std::size_t row, std::size_t col, double value);

    bool open() const noexcept { return open_; }

    // Assemble into `out`, reusing out's storage when adequate, and close the
    // build. The builder keeps its arenas for the next begin().
    void build(Csr& out);

    // out = transpose(a): rows of `out` are columns of `a`, every transposed
    // row's entries in ascending column order (a's row-major scan order).
    // Uses this builder's counting scratch; independent of begin()/build()
    // state.
    void transpose(const Csr& a, Csr& out);

private:
    bool open_ = false;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::uint32_t> coo_row_;
    std::vector<std::uint32_t> coo_col_;
    std::vector<double> coo_val_;
    std::vector<std::uint64_t> counts_;  // per-row counters / scatter cursors
};

// --- Sweep kernels -------------------------------------------------------
//
// One Gauss-Seidel sweep in natural state order (0..n-1), updating pi in
// place on the balance equations pi[s] = (sum_in pi[from] * rate) / exit[s]
// and reading each state's in-edges (rows of `in`, which must be the
// transpose of the out-matrix) in ascending source order. States with
// exit[s] <= 0 (absorbing) are skipped. With `check` set, the return value is
// the worst relative change |next - prev| / max(prev, 1e-14) over the updated
// states; otherwise 0.0. Bit-identical to the pre-CSR edge-list solver.
double gs_sweep_natural(const Csr& in, const double* exit_rates, double* pi,
                        bool check) noexcept;

// One uniformized power step, next = pi * (I + Q / lambda), in gather form:
// next[s] = pi[s] * (1 - exit[s] / lambda) + sum_in pi[from] * rate / lambda.
void uniformized_step(const Csr& in, const double* exit_rates, double lambda,
                      const double* pi, double* next);

}  // namespace hap::markov
