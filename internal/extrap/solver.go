package extrap

import (
	"errors"
	"math"
)

// errSingular reports an unsolvable (rank-deficient) least-squares system;
// the corresponding hypothesis is discarded.
var errSingular = errors.New("extrap: singular normal equations")

// lstsq solves min ||A c - y||^2 over the given rows, where column 0 of A
// is the constant 1 and column t+1 is cols[t]. It sums the normal
// equations (A^T A) c = A^T y straight from the columns, row by row in
// the order of rows, and solves them by Gaussian elimination with partial
// pivoting. The result holds the constant first.
func lstsq(cols [][]float64, y []float64, rows []int) ([]float64, error) {
	k := len(cols) + 1
	if len(rows) == 0 || len(rows) < k {
		return nil, errSingular
	}
	// Normal matrix N = A^T A (k x k) augmented with rhs = A^T y. It is
	// symmetric, and a[i]*a[j] == a[j]*a[i] exactly, so only the upper
	// triangle is summed.
	w := k + 1
	buf := make([]float64, k*w+k)
	n := make([][]float64, k)
	for i := range n {
		n[i] = buf[i*w : (i+1)*w]
	}
	a := buf[k*w:]
	a[0] = 1
	for _, r := range rows {
		for t, col := range cols {
			a[t+1] = col[r]
		}
		yr := y[r]
		for i := 0; i < k; i++ {
			ni, ai := n[i], a[i]
			for j := i; j < k; j++ {
				ni[j] += ai * a[j]
			}
			ni[k] += ai * yr
		}
	}
	for i := 1; i < k; i++ {
		for j := 0; j < i; j++ {
			n[i][j] = n[j][i]
		}
	}
	// Gaussian elimination with partial pivoting on the augmented matrix.
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(n[r][col]) > math.Abs(n[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(n[pivot][col]) < 1e-12 {
			return nil, errSingular
		}
		n[col], n[pivot] = n[pivot], n[col]
		inv := 1 / n[col][col]
		for j := col; j <= k; j++ {
			n[col][j] *= inv
		}
		for r := 0; r < k; r++ {
			if r == col || n[r][col] == 0 {
				continue
			}
			f := n[r][col]
			for j := col; j <= k; j++ {
				n[r][j] -= f * n[col][j]
			}
		}
	}
	c := make([]float64, k)
	for i := range c {
		c[i] = n[i][k]
		if math.IsNaN(c[i]) || math.IsInf(c[i], 0) {
			return nil, errSingular
		}
	}
	return c, nil
}
