// Package sparselu provides the sparse basis kernel of the LP solver: an LU
// factorization of the (sparse, square) simplex basis with a Markowitz-style
// fill-reducing pivot order and threshold partial pivoting, hyper-sparse
// forward/backward solves (FTRAN/BTRAN), and eta-file
// (product-form-of-the-inverse) updates so that a pivot costs O(nnz) instead
// of a refactorization.
//
// The factorization is left-looking (Gilbert–Peierls style): columns are
// eliminated in a static least-count order — the column half of the Markowitz
// count — and within each column the pivot row is chosen among entries
// within a threshold of the largest magnitude, preferring the row with the
// smallest static count (the row half). All choices are deterministic, so
// repeated factorizations of the same basis are bit-for-bit identical.
//
// Both triangular factors are additionally mirrored in transposed (row-major)
// form so that Btran, like Ftran, runs as a pair of scatter-style solves.
// The solves are hyper-sparse (Hall & McKinnon 2005): Ftran and Btran take
// the nonzero pattern of their right-hand side and return that of the
// result, and each triangular solve visits only the elimination steps
// reachable from the input. A bitset over the steps collects them and is
// drained in the same ascending or descending step order a dense loop would
// use, and Btran applies only the etas that read or write a nonzero
// position, found through per-position occurrence chains. The work skipped
// is exactly the work a dense loop spends on zeros, so every nonzero of the
// result is bit-for-bit what the dense loops compute. A solve costs
// O(m/64 + reached steps + touched nonzeros), plus one check per eta in
// Ftran; dense right-hand sides take the same path.
//
// A Factors is a view: an immutable LU base, held by reference, and an eta
// file of its own. Views and captures share bases (ShareInto, CaptureInto),
// so a warm start, a branch-and-bound child or a pricing restart adopts a
// factorization without copying L and U: it copies only the eta file, and
// appends its own pivots to its own storage, so views sharing a base never
// see each other's updates. A base is never written while anything holds
// it: FactorizeInto and ExtendInto build into a base drawn from the
// Workspace's pool, and a base whose last holder lets go returns to that
// pool.
//
// Allocation discipline: the hot simplex loop must not allocate. Eta vectors
// live in per-view append-only arenas (amortized zero-allocation growth),
// refactorizations and bordered extensions reuse the symbolic scratch of a
// caller-owned Workspace and the bases in its pool, and a released capture
// idles in the Workspace for the next one. Grown storage keeps headroom, so
// storage reused for slightly larger bases settles instead of reallocating
// each time. The convenience wrapper Factorize allocates fresh storage.
package sparselu

import (
	"errors"
	"math"
	"math/bits"
)

// ErrSingular is returned when the basis matrix is numerically singular.
var ErrSingular = errors.New("sparselu: singular basis")

const (
	// singTol is the absolute magnitude below which a pivot candidate is
	// considered zero (matches the dense kernel this package replaced).
	singTol = 1e-13
	// threshRel is the relative threshold for partial pivoting: any row
	// within threshRel of the column's largest magnitude is pivot-eligible,
	// and the sparsest such row is chosen.
	threshRel = 0.1
	// dropTol drops negligible fill-in from L, U and eta vectors.
	dropTol = 1e-12
)

// eta is one product-form update: the basis column at position r was
// replaced, with FTRAN'd entering column alpha. The off-pivot entries live in
// the owning view's arena at [off, off+n) so that updates never allocate in
// steady state and copies relocate cleanly.
type eta struct {
	r   int32
	n   int32
	off int32
	piv float64 // alpha[r]
}

// lu is the immutable base of a factorization, B₀ = L·U modulo
// permutations, shared by reference between the views and captures that
// hold it (refs counts them). It is written only while nothing holds it:
// by FactorizeInto and ExtendInto, into a base drawn from a Workspace's
// pool.
type lu struct {
	m int

	order  []int32 // elimination step k processed basis position order[k]
	rowPiv []int32 // original row pivotal at step k

	// L in column form per elimination step (unit diagonal implicit);
	// row indices are original row indices.
	lptr []int32
	lrow []int32
	lval []float64

	// U in column form per elimination step; row indices are earlier step
	// numbers. The diagonal is stored separately.
	uptr  []int32
	urow  []int32
	uval  []float64
	udiag []float64

	// Transposed mirrors for the scatter-form Btran. U by row step: for step
	// j, the steps k > j with U[j,k] ≠ 0. L by pivotal step: for step k, the
	// earlier steps k' whose L column holds an entry at row rowPiv[k].
	urptr []int32
	urcol []int32
	urval []float64
	lrptr []int32
	lrcol []int32
	lrval []float64

	// Inverse permutations, built with the mirrors: rowStep[r] is the step
	// at which row r is pivotal (rowPiv⁻¹), posStep[p] the step that
	// eliminated basis position p (order⁻¹).
	rowStep []int32
	posStep []int32

	refs int
}

// Factors is a factorized basis B = B₀·E₁⋯E_k: a view of a shared LU base
// B₀ together with its own eta file of post-factorization pivots, which
// Update appends to. Not safe for concurrent use (the solves share scratch
// space). A capture (CaptureInto) carries the base and a copy of the eta
// file only: it can be shared from or extended, not solved.
type Factors struct {
	*lu

	etas   []eta
	etaIdx []int32   // arena backing eta off-pivot indices
	etaVal []float64 // arena backing eta off-pivot values
	etaNNZ int
	// capture marks a capture (CaptureInto), which Release accepts and no
	// solve reads.
	capture bool
	// Eta occurrence chains: etaHead[p] is the newest node naming an eta
	// that reads or writes position p (-1 if none), and each node links to
	// the next-older one. Update appends; Btran walks them to find the etas
	// a solve reaches.
	etaHead []int32
	occ     []etaOcc

	// Solve scratch, all zero between solves: per-step values (length m),
	// and the mark bits — one per elimination step, then one per row or
	// position (nmark words each), then one per eta (grown by Update).
	scratch []float64
	marks   []uint64
	nmark   int
}

// etaOcc is one node of an eta occurrence chain: eta number eta names the
// chain's position, and next is the next-older node (-1 ends the chain).
type etaOcc struct {
	eta, next int32
}

// markWords is the number of 64-bit words holding one bit per index < m.
func markWords(m int) int { return (m + 63) >> 6 }

// Workspace holds the reusable symbolic and numeric scratch of the
// factorization and extension kernels, the pool of LU bases nothing holds
// any more, and the captures released to it. A Workspace may be reused
// across any number of calls (growing on demand, never shrinking) but must
// not be shared between concurrent calls.
type Workspace struct {
	w       []float64 // dense accumulator for the current column
	rowPos  []int32   // original row → elimination step, or -1
	visited []bool
	post    []int32 // DFS postorder (reverse = topological)
	stack   []int32 // DFS stack of rows
	estate  []int32 // per-row DFS edge cursor
	rcount  []int32 // static per-row entry counts
	cnt     []int32 // transpose-mirror counting scratch
	// L and U entry counts of the last factorization
	lnnz, unnz int

	// ExtendInto's nonzero border multipliers, in row-major order: border
	// row xrow[i], elimination step xstep[i], value xval[i].
	xrow  []int32
	xstep []int32
	xval  []float64

	bases []*lu      // bases nothing holds, for the next factorization
	idle  []*Factors // released captures, for the next Capture
}

// NewWorkspace returns an empty workspace; storage grows on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

func (ws *Workspace) grow(m int) {
	if cap(ws.w) < m {
		c := headroom(cap(ws.w), m)
		ws.w = make([]float64, m, c)
		ws.rowPos = make([]int32, m, c)
		ws.visited = make([]bool, m, c)
		ws.estate = make([]int32, m, c)
		ws.rcount = make([]int32, m, c)
		ws.cnt = make([]int32, m+1, c+1)
		ws.post = growI32(ws.post, m)[:0]
		ws.stack = growI32(ws.stack, m)[:0]
		return
	}
	ws.w = ws.w[:m]
	ws.rowPos = ws.rowPos[:m]
	ws.visited = ws.visited[:m]
	ws.estate = ws.estate[:m]
	ws.rcount = ws.rcount[:m]
	ws.cnt = ws.cnt[:m+1]
}

// growI32 and growF64 return s resized to n entries, reusing its storage
// when the capacity allows. The contents are unspecified: every caller
// overwrites what it reads. Storage that has to grow gets a quarter of
// headroom (see headroom), so a buffer reused for slightly larger
// factorizations — a basis grown by appended rows, fill that grows by a
// few entries — does not reallocate every time.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, headroom(cap(s), n))
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, headroom(cap(s), n))
	}
	return s[:n]
}

// headroom is the capacity for storage of capacity old that must hold n:
// exactly n on a first allocation, so one-shot buffers pay nothing, and a
// quarter more when existing storage grows.
func headroom(old, n int) int {
	if old == 0 {
		return n
	}
	return n + n/4
}

// copyOf copies src into dst's storage (grown like growI32) and returns the
// copy.
func copyOf[T any](dst, src []T) []T {
	if n := len(src); cap(dst) < n {
		dst = make([]T, n, headroom(cap(dst), n))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// zeroed returns s resized to n zero entries, reusing its storage when the
// capacity allows (grown like growI32).
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, headroom(cap(s), n))
	}
	s = s[:n]
	clear(s)
	return s
}

// resetSolveState sizes the solve scratch for the current m and the eta
// marks for the current eta file, all zero.
func (f *Factors) resetSolveState() {
	f.nmark = markWords(f.m)
	f.scratch = zeroed(f.scratch, f.m)
	f.marks = zeroed(f.marks, 2*f.nmark+markWords(len(f.etas)))
}

// base returns a base from the pool, or a new one when the pool is empty.
// No view holds it.
func (ws *Workspace) base() *lu {
	n := len(ws.bases)
	if n == 0 {
		return &lu{} //lint:allow hotalloc -- until the pool holds a base
	}
	b := ws.bases[n-1]
	ws.bases[n-1] = nil
	ws.bases = ws.bases[:n-1]
	return b
}

// hold makes b f's base, dropping f's hold on its previous one, which
// returns to ws's pool once nothing holds it. b may be f's base already.
func (f *Factors) hold(b *lu, ws *Workspace) {
	b.refs++
	if old := f.lu; old != nil {
		if old.refs--; old.refs == 0 {
			ws.bases = append(ws.bases, old) //lint:allow hotalloc -- grows once, to the peak of bases nothing holds
		}
	}
	f.lu = b
}

// Factorize computes the sparse LU factorization of the m×m basis whose
// column at position p has row indices colIdx[p] and values colVal[p].
// The input slices are not retained. Hot callers should hold a Workspace and
// a destination and use FactorizeInto instead.
func Factorize(m int, colIdx [][]int32, colVal [][]float64) (*Factors, error) {
	f := &Factors{}
	if err := FactorizeInto(f, NewWorkspace(), m, colIdx, colVal); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorizeInto computes the sparse LU factorization of the m×m basis into
// dst, with an empty eta file. The base is built in one drawn from ws's
// pool, so nothing else holding dst's previous base sees a change, and
// dst's eta and scratch storage is reused when its capacity allows. On
// error dst is left as it was.
func FactorizeInto(dst *Factors, ws *Workspace, m int, colIdx [][]int32, colVal [][]float64) error {
	b := ws.base()
	if err := b.factorize(ws, m, colIdx, colVal); err != nil {
		ws.bases = append(ws.bases, b)
		return err
	}
	dst.hold(b, ws)
	dst.etas = dst.etas[:0]
	dst.etaIdx = dst.etaIdx[:0]
	dst.etaVal = dst.etaVal[:0]
	dst.etaNNZ = 0
	dst.occ = dst.occ[:0]
	dst.etaHead = growI32(dst.etaHead, m)
	for p := range dst.etaHead {
		dst.etaHead[p] = -1
	}
	dst.resetSolveState()
	return nil
}

// factorize fills f with the LU factorization of the m×m basis.
func (f *lu) factorize(ws *Workspace, m int, colIdx [][]int32, colVal [][]float64) error {
	f.m = m
	f.order = growI32(f.order, m)
	f.rowPiv = growI32(f.rowPiv, m)
	f.lptr = growI32(f.lptr, m+1)
	f.uptr = growI32(f.uptr, m+1)
	f.udiag = growF64(f.udiag, m)
	// A base drawn fresh starts with room for the fill the workspace's
	// last factorization had, so appending L and U rarely regrows.
	f.lrow, f.lval = growI32(f.lrow, ws.lnnz)[:0], growF64(f.lval, ws.lnnz)[:0]
	f.urow, f.uval = growI32(f.urow, ws.unnz)[:0], growF64(f.uval, ws.unnz)[:0]
	if m == 0 {
		f.lptr[0], f.uptr[0] = 0, 0
		f.buildMirrors(ws)
		return nil
	}
	ws.grow(m)

	// Static Markowitz counts: column elimination order by ascending nnz
	// (ties by position, for determinism) and per-row entry counts for the
	// pivot-row tie-break.
	ws.cnt = orderByCount(f.order, ws.cnt, colIdx)
	rcount := ws.rcount
	for r := range rcount {
		rcount[r] = 0
	}
	for p := 0; p < m; p++ {
		for _, r := range colIdx[p] {
			rcount[r]++
		}
	}

	w := ws.w
	rowPos := ws.rowPos
	for r := 0; r < m; r++ {
		w[r] = 0
		rowPos[r] = -1
		ws.visited[r] = false
	}
	// Gilbert–Peierls workspaces: the DFS discovers the nonzero pattern of
	// L_partial⁻¹·A_j so both the triangular solve and the pivot search
	// touch only (fill-in) nonzeros instead of all m rows.
	visited := ws.visited
	post := ws.post[:0]
	stack := ws.stack[:0]
	estate := ws.estate

	f.lptr[0], f.uptr[0] = 0, 0
	for k := 0; k < m; k++ {
		j := f.order[k]
		// Symbolic phase: reachable rows from the column's pattern through
		// the already-computed L columns.
		post = post[:0]
		for _, r0 := range colIdx[j] {
			if visited[r0] {
				continue
			}
			stack = append(stack, r0)
			visited[r0] = true
			if t := rowPos[r0]; t >= 0 {
				estate[r0] = f.lptr[t]
			}
			for len(stack) > 0 {
				r := stack[len(stack)-1]
				t := rowPos[r]
				advanced := false
				if t >= 0 {
					for e := estate[r]; e < f.lptr[t+1]; e++ {
						rr := f.lrow[e]
						if !visited[rr] {
							estate[r] = e + 1
							visited[rr] = true
							if tt := rowPos[rr]; tt >= 0 {
								estate[rr] = f.lptr[tt]
							}
							stack = append(stack, rr)
							advanced = true
							break
						}
					}
				}
				if !advanced {
					post = append(post, r)
					stack = stack[:len(stack)-1]
				}
			}
		}
		// Numeric phase: scatter, then apply L columns in topological order.
		for t, r := range colIdx[j] {
			w[r] += colVal[j][t]
		}
		for i := len(post) - 1; i >= 0; i-- {
			r := post[i]
			t := rowPos[r]
			if t < 0 {
				continue
			}
			piv := w[r]
			if piv == 0 {
				continue
			}
			for e := f.lptr[t]; e < f.lptr[t+1]; e++ {
				w[f.lrow[e]] -= f.lval[e] * piv
			}
		}
		// Threshold partial pivoting over not-yet-pivotal rows of the
		// pattern: eligible within threshRel of the largest magnitude,
		// sparsest static row count wins (deterministic tie-break on the
		// DFS pattern order).
		maxAbs := 0.0
		for _, r := range post {
			if rowPos[r] < 0 {
				if a := math.Abs(w[r]); a > maxAbs {
					maxAbs = a
				}
			}
		}
		if maxAbs < singTol {
			// Clear the scatter state so the workspace stays reusable.
			for _, r := range post {
				w[r] = 0
				visited[r] = false
			}
			ws.post, ws.stack = post[:0], stack[:0]
			return ErrSingular
		}
		thresh := threshRel * maxAbs
		pr := int32(-1)
		for _, r := range post {
			if rowPos[r] >= 0 || math.Abs(w[r]) < thresh {
				continue
			}
			if pr == -1 || rcount[r] < rcount[pr] {
				pr = r
			}
		}
		piv := w[pr]
		// Emit the column: U entries at already-pivotal rows, L multipliers
		// below, clearing the accumulator and visit marks as we go.
		for _, r := range post {
			v := w[r]
			w[r] = 0
			visited[r] = false
			if v == 0 {
				continue
			}
			switch {
			case rowPos[r] >= 0:
				if math.Abs(v) > dropTol {
					f.urow = append(f.urow, rowPos[r])
					f.uval = append(f.uval, v)
				}
			case r != pr:
				if lv := v / piv; math.Abs(lv) > dropTol {
					f.lrow = append(f.lrow, int32(r))
					f.lval = append(f.lval, lv)
				}
			}
		}
		f.udiag[k] = piv
		f.rowPiv[k] = pr
		rowPos[pr] = int32(k)
		f.lptr[k+1] = int32(len(f.lrow))
		f.uptr[k+1] = int32(len(f.urow))
	}
	ws.post, ws.stack = post[:0], stack[:0]
	ws.lnnz, ws.unnz = len(f.lrow), len(f.urow)
	f.buildMirrors(ws)
	return nil
}

// orderByCount fills order with the positions 0..len(order)-1 sorted by the
// entry count of their columns, ascending, ties in position order: a stable
// counting sort, the order sort.SliceStable gives without its reflection
// and comparisons. cnt is scratch storage, grown to the largest count plus
// one and returned.
//
//hot:path
func orderByCount(order, cnt []int32, colIdx [][]int32) []int32 {
	most := 0
	for _, c := range colIdx[:len(order)] {
		most = max(most, len(c))
	}
	cnt = growI32(cnt, most+1)
	clear(cnt)
	for _, c := range colIdx[:len(order)] {
		cnt[len(c)]++
	}
	// Exclusive prefix sums: cnt[k] becomes the first slot of count k.
	sum := int32(0)
	for k, c := range cnt {
		cnt[k] = sum
		sum += c
	}
	for p, c := range colIdx[:len(order)] {
		order[cnt[len(c)]] = int32(p)
		cnt[len(c)]++
	}
	return cnt
}

// buildMirrors derives the transposed (row-major) views of L and U consumed
// by the scatter-form Btran, and the inverse permutations rowStep and
// posStep. U is mirrored by row step (urow entries are step numbers); L is
// mirrored by the step at which each entry's row becomes pivotal, which is
// exactly the order the backward Lᵀ scatter finalizes them.
func (f *lu) buildMirrors(ws *Workspace) {
	m := f.m
	f.urptr = growI32(f.urptr, m+1)
	f.lrptr = growI32(f.lrptr, m+1)
	f.urcol = growI32(f.urcol, len(f.urow))
	f.urval = growF64(f.urval, len(f.uval))
	f.lrcol = growI32(f.lrcol, len(f.lrow))
	f.lrval = growF64(f.lrval, len(f.lval))
	f.rowStep = growI32(f.rowStep, m)
	f.posStep = growI32(f.posStep, m)
	if m == 0 {
		f.urptr[0], f.lrptr[0] = 0, 0
		return
	}
	for k := 0; k < m; k++ {
		f.rowStep[f.rowPiv[k]] = int32(k)
		f.posStep[f.order[k]] = int32(k)
	}
	if ws == nil || cap(ws.cnt) < m+1 {
		ws = &Workspace{cnt: make([]int32, m+1)}
	}
	cnt := ws.cnt[:m+1]

	// U mirror: count entries per row step, then scatter (k ascending keeps
	// each row's column list sorted ascending — deterministic).
	for i := range cnt {
		cnt[i] = 0
	}
	for _, j := range f.urow {
		cnt[j+1]++
	}
	for i := 0; i < m; i++ {
		cnt[i+1] += cnt[i]
	}
	copy(f.urptr, cnt[:m+1])
	for k := 0; k < m; k++ {
		for e := f.uptr[k]; e < f.uptr[k+1]; e++ {
			j := f.urow[e]
			f.urcol[cnt[j]] = int32(k)
			f.urval[cnt[j]] = f.uval[e]
			cnt[j]++
		}
	}

	// L mirror: entries keyed by the step at which their row becomes
	// pivotal.
	for i := range cnt {
		cnt[i] = 0
	}
	for _, r := range f.lrow {
		cnt[f.rowStep[r]+1]++
	}
	for i := 0; i < m; i++ {
		cnt[i+1] += cnt[i]
	}
	copy(f.lrptr, cnt[:m+1])
	for k := 0; k < m; k++ {
		for e := f.lptr[k]; e < f.lptr[k+1]; e++ {
			s := f.rowStep[f.lrow[e]]
			f.lrcol[cnt[s]] = int32(k)
			f.lrval[cnt[s]] = f.lval[e]
			cnt[s]++
		}
	}
}

// M returns the dimension of the factorized basis, 0 for a Factors that
// holds none.
func (f *Factors) M() int {
	if f.lu == nil {
		return 0
	}
	return f.m
}

// NumEtas reports the number of eta updates applied since factorization.
func (f *Factors) NumEtas() int { return len(f.etas) }

// EtaNNZ reports the total number of stored eta entries; the refactorization
// policy uses it to bound update-file growth on dense pivot columns.
//
//hot:path
func (f *Factors) EtaNNZ() int { return f.etaNNZ }

// Update appends the product-form eta for a pivot that replaced the basis
// column at position r, where alpha = B⁻¹·(entering column) is the FTRAN'd
// entering column and nz lists, in ascending order and without repeats, the
// positions where alpha may be nonzero (the pattern Ftran returned).
// alpha[r] must be nonzero (the simplex ratio test guarantees a pivot
// magnitude above its tolerance). Steady-state updates are allocation-free
// once the arena capacity has warmed up.
//
//hot:path
func (f *Factors) Update(alpha []float64, nz []int32, r int) {
	i := int32(len(f.etas))
	off := int32(len(f.etaIdx))
	f.etaIdx = arenaRoom(f.etaIdx, len(nz), f.m)
	f.etaVal = arenaRoom(f.etaVal, len(nz), f.m)
	f.occ = arenaRoom(f.occ, len(nz)+1, f.m)
	for _, p := range nz {
		if v := alpha[p]; int(p) != r && math.Abs(v) > dropTol {
			f.etaIdx = append(f.etaIdx, p) //lint:allow hotalloc -- within the capacity arenaRoom reserved
			f.etaVal = append(f.etaVal, v)
			f.chainEta(p, i)
		}
	}
	f.chainEta(int32(r), i)
	n := int32(len(f.etaIdx)) - off
	f.etas = append(f.etas, eta{r: int32(r), n: n, off: off, piv: alpha[r]}) //lint:allow hotalloc -- amortized eta-file growth; compacted at refactorization
	f.etaNNZ += int(n) + 1
	if len(f.marks) < 2*f.nmark+markWords(len(f.etas)) {
		f.marks = append(f.marks, 0) //lint:allow hotalloc -- amortized growth, one word per 64 etas
	}
}

// EtaBudget is the number of eta entries (EtaNNZ) past which a view of an
// m×m basis is due for refactorization: dense pivot columns (up to m
// entries each) would otherwise make the product-form solves quadratic.
func EtaBudget(m int) int { return max(8*m, 512) }

// arenaRoom returns s, an eta arena of an m×m basis, with room for n more
// entries. Storage that has to grow doubles from a third of the most an
// eta file holds before its view is refactorized (the budget plus one
// update) up to that size, so an arena settles after at most three
// growths; it grows past it only for an eta file kept past its budget.
// Capacity is kept across refactorizations.
func arenaRoom[T any](s []T, n, m int) []T {
	if need := len(s) + n; need > cap(s) {
		full := EtaBudget(m) + m
		t := make([]T, len(s), max(need, min(max(2*cap(s), full/3), full)))
		copy(t, s)
		s = t
	}
	return s
}

// chainEta records that eta i reads or writes position p, in a node the
// caller has reserved.
func (f *Factors) chainEta(p, i int32) {
	f.occ = append(f.occ, etaOcc{eta: i, next: f.etaHead[p]}) //lint:allow hotalloc -- within the capacity arenaRoom reserved
	f.etaHead[p] = int32(len(f.occ) - 1)
}

// Ftran solves B·x = v in place: on input v is a right-hand side indexed by
// row, zero outside the rows nz lists (any order, repeats allowed); on output
// it holds x indexed by basis position, and the returned slice, which reuses
// nz's storage, lists the positions where x may be nonzero in ascending
// order. cap(nz) must be at least M(). Only the elimination steps reachable
// from the input are visited, in the ascending (L) and descending (U) step
// order of the dense solve; the eta file is then applied in pivot order.
//
// Throughout, a step is marked whenever its row holds a nonzero, so a
// scatter marks its target only when the target is still zero.
//
//hot:path
func (f *Factors) Ftran(v []float64, nz []int32) []int32 {
	steps, pos := f.marks[:f.nmark], f.marks[f.nmark:2*f.nmark]
	for _, r := range nz {
		if v[r] != 0 {
			setMark(steps, f.rowStep[r])
		}
	}
	// L solve (forward, scatter form). Writes reach only later steps, so
	// each mark word is rescanned for bits not yet done; the marks stay set
	// for the U solve.
	for w := range steps {
		for done := uint64(0); ; {
			word := steps[w] &^ done
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			done |= 1 << b
			k := w<<6 | b
			val := v[f.rowPiv[k]]
			if val == 0 {
				continue
			}
			for e := f.lptr[k]; e < f.lptr[k+1]; e++ {
				r := f.lrow[e]
				if v[r] == 0 {
					setMark(steps, f.rowStep[r])
				}
				v[r] -= f.lval[e] * val
			}
		}
	}
	// U solve (backward, scatter form), result per elimination step. Writes
	// reach only earlier steps, so the highest mark left is always the next
	// step; the drain clears the marks, zeroes each step's row once read,
	// and lists the reached steps in nz.
	x := f.scratch
	reached := nz[:f.m]
	n := 0
	for w := len(steps) - 1; w >= 0; w-- {
		for steps[w] != 0 {
			b := 63 - bits.LeadingZeros64(steps[w])
			steps[w] &^= 1 << b
			k := w<<6 | b
			r := f.rowPiv[k]
			t := v[r]
			v[r] = 0
			if t != 0 {
				t /= f.udiag[k]
				for e := f.uptr[k]; e < f.uptr[k+1]; e++ {
					j := f.urow[e]
					rj := f.rowPiv[j]
					if v[rj] == 0 {
						setMark(steps, j)
					}
					v[rj] -= f.uval[e] * t
				}
			}
			x[k] = t
			reached[n] = int32(k)
			n++
		}
	}
	// Permute the reached steps back to basis positions; every other entry
	// of v is already zero.
	for _, k := range reached[:n] {
		p := f.order[k]
		v[p] = x[k]
		if x[k] != 0 {
			setMark(pos, p)
		}
		x[k] = 0
	}
	// Apply the eta file in pivot order: B = B₀·E₁⋯E_k, so
	// x = E_k⁻¹·…·E₁⁻¹·B₀⁻¹·v.
	for i := range f.etas {
		e := &f.etas[i]
		pv := v[e.r]
		if pv == 0 {
			continue
		}
		pv /= e.piv
		idx := f.etaIdx[e.off : e.off+e.n]
		val := f.etaVal[e.off : e.off+e.n]
		for t, ix := range idx {
			if v[ix] == 0 {
				setMark(pos, ix)
			}
			v[ix] -= val[t] * pv
		}
		v[e.r] = pv
	}
	nz = drainMarks(pos, nz[:f.m])
	f.debugCheckSolve(v, nz)
	return nz
}

// Btran solves Bᵀ·y = v in place: on input v is indexed by basis position
// (e.g. basic costs), zero outside the positions nz lists (any order, repeats
// allowed); on output it holds y indexed by row, and the returned slice,
// which reuses nz's storage, lists the rows where y may be nonzero in
// ascending order. cap(nz) must be at least M(). The eta transposes run in
// reverse pivot order over only the etas that read or write a nonzero
// position; the Uᵀ and Lᵀ solves visit only the reachable steps, in the
// ascending and descending step order of the dense solve, marking steps as
// Ftran does.
//
//hot:path
func (f *Factors) Btran(v []float64, nz []int32) []int32 {
	f.btranEtas(v, nz)
	steps, pos, z := f.marks[:f.nmark], f.marks[f.nmark:2*f.nmark], f.scratch
	// Uᵀ solve (forward in elimination steps, scatter form over the row
	// mirror). Writes reach only later steps; the marks stay set for Lᵀ.
	for w := range steps {
		for done := uint64(0); ; {
			word := steps[w] &^ done
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			done |= 1 << b
			k := w<<6 | b
			t := z[k]
			if t == 0 {
				continue
			}
			t /= f.udiag[k]
			z[k] = t
			for e := f.urptr[k]; e < f.urptr[k+1]; e++ {
				j := f.urcol[e]
				if z[j] == 0 {
					setMark(steps, j)
				}
				z[j] -= f.urval[e] * t
			}
		}
	}
	// Lᵀ solve (backward; scatter form over the step-keyed mirror: once
	// step k is final, its value feeds the earlier steps whose L columns
	// reference row rowPiv[k]). The drain clears the marks.
	for w := len(steps) - 1; w >= 0; w-- {
		for steps[w] != 0 {
			b := 63 - bits.LeadingZeros64(steps[w])
			steps[w] &^= 1 << b
			k := w<<6 | b
			t := z[k]
			z[k] = 0
			r := f.rowPiv[k]
			v[r] = t
			if t == 0 {
				continue
			}
			setMark(pos, r)
			for e := f.lrptr[k]; e < f.lrptr[k+1]; e++ {
				j := f.lrcol[e]
				if z[j] == 0 {
					setMark(steps, j)
				}
				z[j] -= f.lrval[e] * t
			}
		}
	}
	nz = drainMarks(pos, nz[:f.m])
	f.debugCheckSolve(v, nz)
	return nz
}

// btranEtas runs the first half of Btran on v, indexed by basis position
// and zero outside the positions nz lists: the eta transposes in reverse
// pivot order over only the etas that read or write a nonzero position,
// then the column permutation, which moves the result into the per-step
// scratch, marks its nonzero steps and leaves v zero.
func (f *Factors) btranEtas(v []float64, nz []int32) {
	steps, pos, etaMarks := f.marks[:f.nmark], f.marks[f.nmark:2*f.nmark], f.marks[2*f.nmark:]
	ne := int32(len(f.etas))
	for _, p := range nz {
		if v[p] != 0 && !hasMark(pos, p) {
			setMark(pos, p)
			f.markEtas(etaMarks, p, ne)
		}
	}
	// Eta transposes in reverse pivot order. An eta none of whose positions
	// has held a nonzero would only compute a zero, so it stays unmarked;
	// a position turning nonzero marks the older etas on its chain, so the
	// highest mark left is always the next eta.
	for w := len(etaMarks) - 1; w >= 0; w-- {
		for etaMarks[w] != 0 {
			b := 63 - bits.LeadingZeros64(etaMarks[w])
			etaMarks[w] &^= 1 << b
			i := int32(w<<6 | b)
			e := &f.etas[i]
			s := v[e.r]
			idx := f.etaIdx[e.off : e.off+e.n]
			val := f.etaVal[e.off : e.off+e.n]
			for t, ix := range idx {
				s -= val[t] * v[ix]
			}
			s /= e.piv
			v[e.r] = s
			if s != 0 && !hasMark(pos, e.r) {
				setMark(pos, e.r)
				f.markEtas(etaMarks, e.r, i)
			}
		}
	}
	// Column permutation: the marked positions move to their steps, leaving
	// v all zero.
	z := f.scratch
	for w, word := range pos {
		for word != 0 {
			p := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			k := f.posStep[p]
			z[k] = v[p]
			v[p] = 0
			if z[k] != 0 {
				setMark(steps, k)
			}
		}
		pos[w] = 0
	}
}

// markEtas marks, in etaMarks, the etas numbered below `below` that read or
// write position p.
func (f *Factors) markEtas(etaMarks []uint64, p, below int32) {
	for u := f.etaHead[p]; u >= 0; u = f.occ[u].next {
		if i := f.occ[u].eta; i < below {
			setMark(etaMarks, i)
		}
	}
}

// setMark sets bit i of the bitset b.
func setMark(b []uint64, i int32) { b[i>>6] |= 1 << (uint32(i) & 63) }

// hasMark reports whether bit i of b is set.
func hasMark(b []uint64, i int32) bool { return b[i>>6]&(1<<(uint32(i)&63)) != 0 }

// drainMarks writes the set bits of b to out in ascending order, clears b
// and returns the written prefix of out.
func drainMarks(b []uint64, out []int32) []int32 {
	n := 0
	for w, word := range b {
		for word != 0 {
			out[n] = int32(w<<6 | bits.TrailingZeros64(word))
			n++
			word &= word - 1
		}
		b[w] = 0
	}
	return out[:n]
}
