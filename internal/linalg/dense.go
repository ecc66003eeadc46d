package linalg

import "fmt"

// Dense is a row-major dense matrix of float64. The zero value is an
// empty matrix; use NewDense to allocate.
type Dense struct {
	Rows, Cols int
	Data       []float64 // length Rows*Cols, row-major
}

// NewDense allocates a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: NewDense with negative dims %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewDenseFrom wraps data (without copying) as a rows×cols matrix. It
// panics if len(data) != rows*cols.
func NewDenseFrom(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: NewDenseFrom: %d elements for %dx%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// GrowDense returns d resized to rows×cols, reusing its backing array
// when capacity allows (d may be nil). Contents are unspecified.
func GrowDense(d *Dense, rows, cols int) *Dense {
	need := rows * cols
	if d == nil || cap(d.Data) < need {
		return NewDense(rows, cols)
	}
	d.Rows, d.Cols, d.Data = rows, cols, d.Data[:need]
	return d
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// MulVec computes y = M·x. It panics on dimension mismatch.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec: %dx%d by vector of %d", m.Rows, m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		y[i] = Dot(m.Row(i), x)
	}
	return y
}

// matmulParallelThreshold is the flop count above which MatMul fans
// out across goroutines. Small products are cheaper single-threaded.
const matmulParallelThreshold = 1 << 16

// MatMul returns A·B. It panics on dimension mismatch. Large products
// are computed in parallel across row blocks.
func MatMul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MatMul %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = A·B into a preallocated matrix, avoiding
// an allocation on hot paths. out must be a.Rows×b.Cols and must not
// alias a or b.
func MatMulInto(out, a, b *Dense) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MatMulInto %dx%d = %dx%d by %dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	flops := a.Rows * a.Cols * b.Cols
	if flops < matmulParallelThreshold {
		matMulRange(out, a, b, 0, a.Rows)
		return
	}
	ParallelFor(a.Rows, func(lo, hi int) { matMulRange(out, a, b, lo, hi) })
}

// MatMulSerialInto computes the first out.Cols columns of A·B into a
// preallocated matrix on the calling goroutine only — no fan-out
// regardless of size. out must be a.Rows×c with c ≤ b.Cols; each
// output column is computed on its own, so a narrow out holds exactly
// the leading columns of the full product. The funcsim tile tasks use
// it to skip the columns they would discard; they are fan-out bodies
// whose siblings already hold the pool's workers, and MatMulInto's
// fan-out would allocate its closure on every call.
func MatMulSerialInto(out, a, b *Dense) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols > b.Cols {
		panic(fmt.Sprintf("linalg: MatMulSerialInto %dx%d = %dx%d by %dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	matMulRange(out, a, b, 0, a.Rows)
}

// GatherChunk is how many kept (offset, value) entries a gathering
// caller collects on its stack before flushing them through
// GatherMulAdd. Fixed-size chunks keep the gather allocation-free
// without bounding the inner dimension.
const GatherChunk = 256

// GatherMulAdd adds Σₖ val[k]·b[off[k]+c] into out[c] for every
// c < len(out), with k ascending: out accumulates the rows of b that
// start at the offsets in off, scaled by val. len(val) must be at
// least len(off).
//
// Eight outputs at a time stay in registers across the whole k loop,
// then four, then single columns. Each step is the plain acc += v*w
// the unblocked loops compute, in the same order, so every output is
// bit-identical to an ikj loop over the same entries (a NaN output
// stays NaN, though which payload survives an add of two NaNs is the
// compiler's register choice). The steps must stay unfused: math.FMA
// rounds once and would change results.
func GatherMulAdd(out []float64, off []int, val []float64, b []float64) {
	val = val[:len(off)]
	n := len(out)
	c := 0
	for ; c+8 <= n; c += 8 {
		o := out[c : c+8 : c+8]
		a0, a1, a2, a3, a4, a5, a6, a7 := o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
		for k, v := range val {
			p := off[k] + c
			w := b[p : p+8 : p+8]
			a0 += v * w[0]
			a1 += v * w[1]
			a2 += v * w[2]
			a3 += v * w[3]
			a4 += v * w[4]
			a5 += v * w[5]
			a6 += v * w[6]
			a7 += v * w[7]
		}
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
	if c+4 <= n {
		o := out[c : c+4 : c+4]
		a0, a1, a2, a3 := o[0], o[1], o[2], o[3]
		for k, v := range val {
			p := off[k] + c
			w := b[p : p+4 : p+4]
			a0 += v * w[0]
			a1 += v * w[1]
			a2 += v * w[2]
			a3 += v * w[3]
		}
		o[0], o[1], o[2], o[3] = a0, a1, a2, a3
		c += 4
	}
	for ; c < n; c++ {
		a := out[c]
		for k, v := range val {
			a += v * b[off[k]+c]
		}
		out[c] = a
	}
}

// MatMulRows computes rows [lo, hi) of out = A·B, the row range
// MatMulInto hands each worker. Per row of A it gathers the entries ≠ 0
// (NaN kept, ±0 skipped) with the offsets of the B rows they scale,
// and hands each chunk to GatherMulAdd: the ikj loop with its zero
// skip, register-blocked over the output row.
//
// The three …Rows kernels are for callers that fan out themselves: a
// ParallelFor body built once and reused calls them without the
// per-call closure the fanning wrappers allocate. They check only that
// the shapes agree.
func MatMulRows(out, a, b *Dense, lo, hi int) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MatMulRows %dx%d = %dx%d by %dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	matMulRange(out, a, b, lo, hi)
}

// matMulRange computes rows [lo, hi) of the first out.Cols columns of
// A·B; B's rows keep their stride b.Cols.
func matMulRange(out, a, b *Dense, lo, hi int) {
	n, w := b.Cols, out.Cols
	var off [GatherChunk]int
	var val [GatherChunk]float64
	for i := lo; i < hi; i++ {
		orow := out.Data[i*w : (i+1)*w]
		for t := range orow {
			orow[t] = 0
		}
		arow := a.Row(i)
		for k0 := 0; k0 < len(arow); k0 += GatherChunk {
			piece := arow[k0:min(k0+GatherChunk, len(arow))]
			cnt := 0
			for k, av := range piece {
				// Write every entry, keep the non-zero ones: a
				// data-dependent branch here mispredicts.
				off[cnt] = (k0 + k) * n
				val[cnt] = av
				cnt += nonZero(av)
			}
			GatherMulAdd(orow, off[:cnt], val[:cnt], b.Data)
		}
	}
}

// nonZero is 1 for v ≠ 0 (NaN included) and 0 for ±0.
func nonZero(v float64) int {
	if v != 0 {
		return 1
	}
	return 0
}

// MatMulATB returns Aᵀ·B without materializing the transpose, fanning
// its output rows out across ParallelFor.
func MatMulATB(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("linalg: MatMulATB %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Cols, b.Cols)
	ParallelFor(a.Cols, func(lo, hi int) { MatMulATBRows(out, a, b, lo, hi) })
	return out
}

// MatMulATBRows computes rows [lo, hi) of out = Aᵀ·B (see MatMulRows).
// out[k][j] = Σ_i a[i][k]·b[i][j]: output row k starts at 0 and
// gathers the non-zero entries of A's column k, rows ascending.
func MatMulATBRows(out, a, b *Dense, lo, hi int) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MatMulATBRows %dx%d = (%dx%d)ᵀ by %dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n := b.Cols
	var off [GatherChunk]int
	var val [GatherChunk]float64
	for k := lo; k < hi; k++ {
		orow := out.Data[k*n : (k+1)*n]
		for t := range orow {
			orow[t] = 0
		}
		for i0 := 0; i0 < a.Rows; i0 += GatherChunk {
			i1 := min(i0+GatherChunk, a.Rows)
			cnt := 0
			for i := i0; i < i1; i++ {
				av := a.Data[i*a.Cols+k]
				off[cnt] = i * n
				val[cnt] = av
				cnt += nonZero(av)
			}
			GatherMulAdd(orow, off[:cnt], val[:cnt], b.Data)
		}
	}
}

// MatMulABT returns A·Bᵀ without materializing the transpose, fanning
// its output rows out across ParallelFor.
func MatMulABT(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MatMulABT %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Rows)
	ParallelFor(a.Rows, func(lo, hi int) { MatMulABTRows(out, a, b, lo, hi) })
	return out
}

// MatMulABTRows computes rows [lo, hi) of out = A·Bᵀ (see MatMulRows).
// Each output is Dot of a row of A with a row of B (no zero skip, k
// ascending); four of them share one pass over A's row.
func MatMulABTRows(out, a, b *Dense, lo, hi int) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MatMulABTRows %dx%d = %dx%d by (%dx%d)ᵀ",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Row(j)[:len(arow)]
			b1 := b.Row(j + 1)[:len(arow)]
			b2 := b.Row(j + 2)[:len(arow)]
			b3 := b.Row(j + 3)[:len(arow)]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			orow[j] = Dot(arow, b.Row(j))
		}
	}
}
