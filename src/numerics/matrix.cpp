#include "numerics/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/contracts.hpp"

namespace hap::numerics {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    HAP_CHECK_FINITE(fill);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
        if (row.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        throw std::invalid_argument("Matrix+=: shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
    return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        throw std::invalid_argument("Matrix-=: shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
    return *this;
}

Matrix& Matrix::operator*=(double s) {
    for (double& v : data_) v *= s;
    return *this;
}

Matrix operator*(const Matrix& lhs, const Matrix& rhs) {
    if (lhs.cols_ != rhs.rows_) throw std::invalid_argument("Matrix*: shape mismatch");
    Matrix out(lhs.rows_, rhs.cols_);
    // ikj loop order keeps the inner loop contiguous for both operands.
    for (std::size_t i = 0; i < lhs.rows_; ++i) {
        for (std::size_t k = 0; k < lhs.cols_; ++k) {
            const double a = lhs(i, k);
            if (a == 0.0) continue;  // haplint: allow(float-equality) exact-zero sparsity skip; any other value multiplies
            const double* rrow = &rhs.data_[k * rhs.cols_];
            double* orow = &out.data_[i * out.cols_];
            for (std::size_t j = 0; j < rhs.cols_; ++j) orow[j] += a * rrow[j];
        }
    }
    return out;
}

std::vector<double> Matrix::apply(const std::vector<double>& v) const {
    if (v.size() != cols_) throw std::invalid_argument("Matrix::apply: size mismatch");
    std::vector<double> out(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i)
        out[i] = std::inner_product(v.begin(), v.end(), data_.begin() + static_cast<long>(i * cols_), 0.0);
    return out;
}

std::vector<double> Matrix::apply_left(const std::vector<double>& v) const {
    if (v.size() != rows_) throw std::invalid_argument("Matrix::apply_left: size mismatch");
    std::vector<double> out(cols_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
        const double a = v[i];
        if (a == 0.0) continue;  // haplint: allow(float-equality) exact-zero sparsity skip; any other value multiplies
        const double* row = &data_[i * cols_];
        for (std::size_t j = 0; j < cols_; ++j) out[j] += a * row[j];
    }
    return out;
}

Matrix Matrix::transposed() const {
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
    return out;
}

double Matrix::max_abs() const noexcept {
    double m = 0.0;
    for (double v : data_) m = std::max(m, std::abs(v));
    return m;
}

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
    if (lu_.rows() != lu_.cols()) throw std::invalid_argument("LU: matrix not square");
    const std::size_t n = lu_.rows();
    pivot_.resize(n);
    std::iota(pivot_.begin(), pivot_.end(), std::size_t{0});

    for (std::size_t col = 0; col < n; ++col) {
        std::size_t best = col;
        double best_abs = std::abs(lu_(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            const double v = std::abs(lu_(r, col));
            if (v > best_abs) { best = r; best_abs = v; }
        }
        if (best_abs < 1e-300) throw std::domain_error("LU: singular matrix");
        if (best != col) {
            for (std::size_t j = 0; j < n; ++j) std::swap(lu_(col, j), lu_(best, j));
            std::swap(pivot_[col], pivot_[best]);
        }
        const double diag = lu_(col, col);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = lu_(r, col) / diag;
            lu_(r, col) = factor;
            if (factor == 0.0) continue;  // haplint: allow(float-equality) exact-zero elimination skip
            for (std::size_t j = col + 1; j < n; ++j) lu_(r, j) -= factor * lu_(col, j);
        }
    }
}

std::vector<double> LuDecomposition::solve(const std::vector<double>& b) const {
    const std::size_t n = lu_.rows();
    if (b.size() != n) throw std::invalid_argument("LU::solve: size mismatch");
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[pivot_[i]];
    // Forward substitution (unit lower triangle). The multiply-adds are
    // explicit fma so that solve(Matrix) below matches this bit for bit in
    // every build, whatever the compiler's contraction choices.
    for (std::size_t i = 1; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j) x[i] = std::fma(-lu_(i, j), x[j], x[i]);
    // Back substitution.
    for (std::size_t ii = n; ii-- > 0;) {
        for (std::size_t j = ii + 1; j < n; ++j) x[ii] = std::fma(-lu_(ii, j), x[j], x[ii]);
        x[ii] /= lu_(ii, ii);
    }
    return x;
}

// Every right-hand side at once: each step of the vector solve above becomes
// an axpy over a whole row of X, so column j of the result sees exactly the
// operations solve(column j) would, in the same order — bit-identical — while
// the inner loop runs over independent columns instead of one dependent chain.
Matrix LuDecomposition::solve(const Matrix& b) const {
    const std::size_t n = lu_.rows();
    const std::size_t m = b.cols();
    if (b.rows() != n) throw std::invalid_argument("LU::solve: shape mismatch");
    Matrix x(n, m);
    if (m == 0) return x;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t c = 0; c < m; ++c) x(i, c) = b(pivot_[i], c);
    // Forward substitution (unit lower triangle).
    for (std::size_t i = 1; i < n; ++i) {
        double* xi = &x(i, 0);
        for (std::size_t j = 0; j < i; ++j) {
            const double l = lu_(i, j);
            const double* xj = &x(j, 0);
            for (std::size_t c = 0; c < m; ++c) xi[c] = std::fma(-l, xj[c], xi[c]);
        }
    }
    // Back substitution.
    for (std::size_t ii = n; ii-- > 0;) {
        double* xi = &x(ii, 0);
        for (std::size_t j = ii + 1; j < n; ++j) {
            const double u = lu_(ii, j);
            const double* xj = &x(j, 0);
            for (std::size_t c = 0; c < m; ++c) xi[c] = std::fma(-u, xj[c], xi[c]);
        }
        const double d = lu_(ii, ii);
        for (std::size_t c = 0; c < m; ++c) xi[c] /= d;
    }
    return x;
}

Matrix LuDecomposition::inverse() const { return solve(Matrix::identity(lu_.rows())); }

std::vector<double> solve(const Matrix& a, const std::vector<double>& b) {
    return LuDecomposition(a).solve(b);
}

Matrix inverse(const Matrix& a) { return LuDecomposition(a).inverse(); }

}  // namespace hap::numerics
