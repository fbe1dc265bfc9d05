#include "markov/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/contracts.hpp"

namespace hap::markov {

// --- CsrBuilder ----------------------------------------------------------

void CsrBuilder::begin(std::size_t rows, std::size_t cols) {
    if (rows > UINT32_MAX || cols > UINT32_MAX) {
        throw std::invalid_argument(
            "CsrBuilder: dimensions " + std::to_string(rows) + " x " +
            std::to_string(cols) +
            " exceed the 32-bit index envelope (max 4294967295 per side)");
    }
    rows_ = rows;
    cols_ = cols;
    coo_row_.clear();
    coo_col_.clear();
    coo_val_.clear();
    open_ = true;
}

void CsrBuilder::add(std::size_t row, std::size_t col, double value) {
    if (!open_) throw std::logic_error("CsrBuilder: add before begin (or after build)");
    if (row >= rows_ || col >= cols_)
        throw std::out_of_range("CsrBuilder: entry (" + std::to_string(row) + ", " +
                                std::to_string(col) + ") outside " +
                                std::to_string(rows_) + " x " + std::to_string(cols_));
    HAP_CHECK_FINITE(value);
    coo_row_.push_back(static_cast<std::uint32_t>(row));
    coo_col_.push_back(static_cast<std::uint32_t>(col));
    coo_val_.push_back(value);
}

void CsrBuilder::build(Csr& out) {
    if (!open_) throw std::logic_error("CsrBuilder: build before begin");
    const std::size_t raw = coo_row_.size();
    out.rows = rows_;
    out.cols = cols_;

    // Counting scatter by row: one pass to count, one to place, preserving
    // insertion order within each row.
    out.offsets.assign(rows_ + 1, 0);
    for (std::size_t k = 0; k < raw; ++k) ++out.offsets[coo_row_[k] + 1];
    for (std::size_t r = 0; r < rows_; ++r) out.offsets[r + 1] += out.offsets[r];
    counts_.assign(out.offsets.begin(), out.offsets.end() - 1);
    out.idx.resize(raw);
    out.val.resize(raw);
    for (std::size_t k = 0; k < raw; ++k) {
        const std::uint64_t pos = counts_[coo_row_[k]]++;
        out.idx[pos] = coo_col_[k];
        out.val[pos] = coo_val_[k];
    }

    // Stable per-row insertion sort by column (rows are a handful of entries
    // on the HAP lattices, so insertion sort beats anything with setup cost),
    // then merge duplicates left to right. Stability means equal columns stay
    // in insertion order, so the merged sum is accumulated in add() order —
    // a deterministic function of the build sequence.
    std::uint64_t w = 0;
    std::uint64_t row_begin = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
        const std::uint64_t row_end = out.offsets[r + 1];
        for (std::uint64_t i = row_begin + 1; i < row_end; ++i) {
            const std::uint32_t c = out.idx[i];
            const double v = out.val[i];
            std::uint64_t j = i;
            while (j > row_begin && out.idx[j - 1] > c) {
                out.idx[j] = out.idx[j - 1];
                out.val[j] = out.val[j - 1];
                --j;
            }
            out.idx[j] = c;
            out.val[j] = v;
        }
        std::uint64_t k = row_begin;
        while (k < row_end) {
            const std::uint32_t c = out.idx[k];
            double v = out.val[k];
            ++k;
            while (k < row_end && out.idx[k] == c) {
                v += out.val[k];
                ++k;
            }
            out.idx[w] = c;
            out.val[w] = v;
            ++w;
        }
        row_begin = row_end;
        out.offsets[r + 1] = w;
    }
    out.idx.resize(w);
    out.val.resize(w);
    open_ = false;
}

void CsrBuilder::transpose(const Csr& a, Csr& out) {
    out.rows = a.cols;
    out.cols = a.rows;
    out.offsets.assign(a.cols + 1, 0);
    for (const std::uint32_t c : a.idx) ++out.offsets[c + 1];
    for (std::size_t c = 0; c < a.cols; ++c) out.offsets[c + 1] += out.offsets[c];
    counts_.assign(out.offsets.begin(), out.offsets.end() - 1);
    out.idx.resize(a.nnz());
    out.val.resize(a.nnz());
    // Row-major scan of `a` places each transposed row's entries in ascending
    // source order — the layout the Gauss-Seidel inner product streams
    // through (mostly-sequential loads of pi).
    for (std::size_t r = 0; r < a.rows; ++r) {
        const std::uint64_t begin = a.offsets[r];
        const std::uint64_t end = a.offsets[r + 1];
        for (std::uint64_t k = begin; k < end; ++k) {
            const std::uint64_t pos = counts_[a.idx[k]]++;
            out.idx[pos] = static_cast<std::uint32_t>(r);
            out.val[pos] = a.val[k];
        }
    }
}

// --- Sweep kernels -------------------------------------------------------

double gs_sweep_natural(const Csr& in, const double* exit_rates, double* pi,
                        bool check) noexcept {
    const std::size_t n = in.rows;
    const std::uint64_t* const offsets = in.offsets.data();
    const std::uint32_t* const from = in.idx.data();
    const double* const rate = in.val.data();
    double worst = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
        const double out = exit_rates[s];
        if (out <= 0.0) continue;  // absorbing (shouldn't occur for HAP lattices)
        const std::uint64_t begin = offsets[s];
        const std::uint64_t end = offsets[s + 1];
        double inflow = 0.0;
        for (std::uint64_t k = begin; k < end; ++k) inflow += pi[from[k]] * rate[k];
        const double next = inflow / out;
        if (check) {
            // States with negligible mass are compared absolutely, not
            // relatively, so the stopping rule is not hostage to 1e-100
            // states.
            const double scale = std::max(pi[s], 1e-14);
            worst = std::max(worst, std::abs(next - pi[s]) / scale);
        }
        pi[s] = next;
    }
    return worst;
}

void uniformized_step(const Csr& in, const double* exit_rates, double lambda,
                      const double* pi, double* next) {
    HAP_CHECK_FINITE(lambda);
    HAP_PRECOND(lambda > 0.0);
    const std::size_t n = in.rows;
    const std::uint64_t* const offsets = in.offsets.data();
    const std::uint32_t* const from = in.idx.data();
    const double* const rate = in.val.data();
    const double inv_lambda = 1.0 / lambda;
    for (std::size_t s = 0; s < n; ++s) {
        const std::uint64_t begin = offsets[s];
        const std::uint64_t end = offsets[s + 1];
        double inflow = 0.0;
        for (std::uint64_t k = begin; k < end; ++k) inflow += pi[from[k]] * rate[k];
        next[s] = pi[s] * (1.0 - exit_rates[s] * inv_lambda) + inflow * inv_lambda;
    }
}

}  // namespace hap::markov
