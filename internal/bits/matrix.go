package bits

// Matrix is a dense matrix over GF(2), stored as a slice of row vectors.
type Matrix struct {
	rows int
	cols int
	row  []Vec
}

// NewMatrix returns an all-zero rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	m := &Matrix{rows: rows, cols: cols, row: make([]Vec, rows)}
	for i := range m.row {
		m.row[i] = NewVec(cols)
	}
	return m
}

// MatrixFromStrings builds a matrix from rows written as '0'/'1' strings.
func MatrixFromStrings(rows ...string) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, s := range rows {
		v := MustFromString(s)
		if v.Len() != m.cols {
			panic("bits: ragged matrix rows")
		}
		m.row[i] = v
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Get returns entry (i, j).
func (m *Matrix) Get(i, j int) bool { return m.row[i].Get(j) }

// Set sets entry (i, j).
func (m *Matrix) Set(i, j int, b bool) { m.row[i].Set(j, b) }

// Row returns row i as a vector sharing storage with the matrix.
func (m *Matrix) Row(i int) Vec { return m.row[i] }

// SetRow replaces row i with a copy of v.
func (m *Matrix) SetRow(i int, v Vec) {
	if v.Len() != m.cols {
		panic("bits: row length mismatch")
	}
	m.row[i] = v.Clone()
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	for i := range m.row {
		c.row[i] = m.row[i].Clone()
	}
	return c
}

// MulVec returns m · v over GF(2); v has length Cols, result length Rows.
func (m *Matrix) MulVec(v Vec) Vec {
	if v.Len() != m.cols {
		panic("bits: dimension mismatch in MulVec")
	}
	out := NewVec(m.rows)
	for i := 0; i < m.rows; i++ {
		if m.row[i].Dot(v) {
			out.Set(i, true)
		}
	}
	return out
}

// RREF row-reduces the matrix in place to reduced row-echelon form and
// returns the pivot columns in order.
func (m *Matrix) RREF() []int {
	var pivots []int
	r := 0
	for c := 0; c < m.cols && r < m.rows; c++ {
		// Find a pivot row at or below r with a 1 in column c.
		p := -1
		for i := r; i < m.rows; i++ {
			if m.row[i].Get(c) {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		m.row[r], m.row[p] = m.row[p], m.row[r]
		for i := 0; i < m.rows; i++ {
			if i != r && m.row[i].Get(c) {
				m.row[i].Xor(m.row[r])
			}
		}
		pivots = append(pivots, c)
		r++
	}
	return pivots
}

// Rank returns the GF(2) rank of the matrix (without modifying it).
func (m *Matrix) Rank() int {
	return len(m.Clone().RREF())
}

// Kernel returns a basis for the null space {x : m·x = 0} as rows of a
// matrix with Cols() columns.
func (m *Matrix) Kernel() *Matrix {
	red := m.Clone()
	pivots := red.RREF()
	isPivot := make([]bool, m.cols)
	pivotRow := make([]int, m.cols)
	for r, c := range pivots {
		isPivot[c] = true
		pivotRow[c] = r
	}
	var free []int
	for c := 0; c < m.cols; c++ {
		if !isPivot[c] {
			free = append(free, c)
		}
	}
	ker := NewMatrix(len(free), m.cols)
	for i, fc := range free {
		v := ker.row[i]
		v.Set(fc, true)
		for _, pc := range pivots {
			if red.row[pivotRow[pc]].Get(fc) {
				v.Set(pc, true)
			}
		}
	}
	return ker
}

// Solve finds one solution x with m·x = b, returning ok = false when the
// system is inconsistent.
func (m *Matrix) Solve(b Vec) (x Vec, ok bool) {
	if b.Len() != m.rows {
		panic("bits: dimension mismatch in Solve")
	}
	// Augment [m | b] and reduce.
	aug := NewMatrix(m.rows, m.cols+1)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if m.Get(i, j) {
				aug.Set(i, j, true)
			}
		}
		if b.Get(i) {
			aug.Set(i, m.cols, true)
		}
	}
	pivots := aug.RREF()
	x = NewVec(m.cols)
	for r, c := range pivots {
		if c == m.cols {
			return Vec{}, false // pivot in the augmented column: inconsistent
		}
		if aug.row[r].Get(m.cols) {
			x.Set(c, true)
		}
	}
	return x, true
}

// Inverse returns the inverse of a square full-rank matrix, or ok = false
// when the matrix is singular.
func (m *Matrix) Inverse() (*Matrix, bool) {
	if m.rows != m.cols {
		panic("bits: Inverse of non-square matrix")
	}
	n := m.rows
	// Augment [m | I] and reduce.
	aug := NewMatrix(n, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if m.Get(i, j) {
				aug.Set(i, j, true)
			}
		}
		aug.Set(i, n+i, true)
	}
	pivots := aug.RREF()
	if len(pivots) != n {
		return nil, false
	}
	for i, c := range pivots {
		if c != i {
			return nil, false
		}
	}
	inv := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inv.Set(i, j, aug.Get(i, n+j))
		}
	}
	return inv, true
}

// InSpan reports whether v lies in the row space of m.
func (m *Matrix) InSpan(v Vec) bool {
	if v.Len() != m.cols {
		panic("bits: dimension mismatch in InSpan")
	}
	r := m.Rank()
	ext := NewMatrix(m.rows+1, m.cols)
	for i := 0; i < m.rows; i++ {
		ext.SetRow(i, m.row[i])
	}
	ext.SetRow(m.rows, v)
	return ext.Rank() == r
}

// Stack returns the matrix [m; other] (rows of m above rows of other).
func (m *Matrix) Stack(other *Matrix) *Matrix {
	if m.cols != other.cols {
		panic("bits: column mismatch in Stack")
	}
	s := NewMatrix(m.rows+other.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		s.row[i] = m.row[i].Clone()
	}
	for i := 0; i < other.rows; i++ {
		s.row[m.rows+i] = other.row[i].Clone()
	}
	return s
}
