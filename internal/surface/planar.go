package surface

import (
	"sync"

	"ftqc/internal/decoder"
)

// Planar codes on a (2d−1)×(2d−1) grid: data qubits sit on positions
// with even coordinate sum (d² + (d−1)² of them), Z checks (plaquettes)
// on (odd row, even column), X checks (stars) on (even row, odd
// column) — d(d−1) checks per sector. The top and bottom rows are
// rough boundaries (Z-check chains may end there: weight-3 plaquettes
// never form, instead the boundary data qubits have a single Z reader),
// the left and right columns are smooth boundaries (single X reader).
// Logical X runs down the left column, logical Z along the top row, so
// the primal failure detector is the top row (the support of Z_L) and
// the dual detector the left column (the support of X_L).

// planarCache memoizes constructed planar codes by distance.
var planarCache sync.Map // int → Code

// Planar returns the memoized distance-d planar surface code (d ≥ 2),
// shared across callers.
func Planar(d int) Code {
	if v, ok := planarCache.Load(d); ok {
		return v.(Code)
	}
	v, _ := planarCache.LoadOrStore(d, newPlanar(d))
	return v.(Code)
}

func newPlanar(d int) Code {
	if d < 2 {
		panic("surface: planar distance must be at least 2")
	}
	n := 2*d - 1
	// Data qubits in row-major order over even-coordinate-sum positions.
	qid := make([][]int, n)
	nq := 0
	for r := 0; r < n; r++ {
		qid[r] = make([]int, n)
		for c := 0; c < n; c++ {
			qid[r][c] = -1
			if (r+c)%2 == 0 {
				qid[r][c] = nq
				nq++
			}
		}
	}
	at := func(r, c int) int {
		if r < 0 || r >= n || c < 0 || c >= n {
			return -1
		}
		return qid[r][c]
	}
	// Checks read their grid neighbors with per-sector CNOT orders
	// chosen for hook alignment: an ancilla fault mid-schedule spreads
	// to the data read at the remaining steps, and the dangerous
	// weight-2 hook {step 2, step 3} must run perpendicular to the
	// logical its sector's errors could complete. Plaquette hooks are
	// Z errors (dangerous horizontally — Z chains end on the smooth
	// left/right columns), so Z checks read [left, right, up, down]
	// and hook vertically; star hooks are X errors (dangerous
	// vertically — X chains end on the rough top/bottom rows), so X
	// checks read [up, down, left, right] and hook horizontally.
	// Absent neighbors (boundary checks) idle their step. Both orders
	// give every two-reader qubit distinct steps (the sectors run
	// sequentially, so there are no cross-sector conflicts).
	var zOrd, xOrd [][4]int
	for r := 1; r < n; r += 2 {
		for c := 0; c < n; c += 2 {
			zOrd = append(zOrd, [4]int{at(r, c-1), at(r, c+1), at(r-1, c), at(r+1, c)})
		}
	}
	for r := 0; r < n; r += 2 {
		for c := 1; c < n; c += 2 {
			xOrd = append(xOrd, [4]int{at(r-1, c), at(r+1, c), at(r, c-1), at(r, c+1)})
		}
	}
	// Failure detectors: supp(Z_L) = top row, supp(X_L) = left column.
	detX := make([]int, 0, d)
	detZ := make([]int, 0, d)
	for c := 0; c < n; c += 2 {
		detX = append(detX, qid[0][c])
	}
	for r := 0; r < n; r += 2 {
		detZ = append(detZ, qid[r][0])
	}
	graphs := [2]*decoder.Graph{readerGraph("planar", nq, zOrd), readerGraph("planar", nq, xOrd)}
	return NewCode("planar", d, nq, graphs, [2][][4]int{zOrd, xOrd}, [2][][]int{{detX}, {detZ}})
}
