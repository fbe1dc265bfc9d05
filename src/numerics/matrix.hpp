// Dense row-major matrix with the small set of linear-algebra operations the
// library needs: products, LU factorization with partial pivoting, linear
// solves, and inverses. Sized for the moderate dimensions that arise from
// truncated modulating chains (up to a few thousand rows).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace hap::numerics {

class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
    // Row-major brace construction: Matrix{{1,2},{3,4}}.
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    static Matrix identity(std::size_t n);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }
    bool empty() const noexcept { return data_.empty(); }

    double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

    Matrix& operator+=(const Matrix& rhs);
    Matrix& operator-=(const Matrix& rhs);
    Matrix& operator*=(double s);

    friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
    friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
    friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
    friend Matrix operator*(double s, Matrix rhs) { return rhs *= s; }
    friend Matrix operator*(const Matrix& lhs, const Matrix& rhs);

    // Matrix * column vector.
    std::vector<double> apply(const std::vector<double>& v) const;
    // Row vector * matrix.
    std::vector<double> apply_left(const std::vector<double>& v) const;

    Matrix transposed() const;

    // Largest absolute entry; convenient convergence metric for iterations.
    double max_abs() const noexcept;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

// LU factorization with partial pivoting. Throws std::domain_error on a
// numerically singular matrix.
class LuDecomposition {
public:
    explicit LuDecomposition(Matrix a);

    std::vector<double> solve(const std::vector<double>& b) const;
    Matrix solve(const Matrix& b) const;
    Matrix inverse() const;

private:
    Matrix lu_;
    std::vector<std::size_t> pivot_;
};

// Convenience one-shot solves.
std::vector<double> solve(const Matrix& a, const std::vector<double>& b);
Matrix inverse(const Matrix& a);

}  // namespace hap::numerics
