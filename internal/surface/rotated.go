package surface

import (
	"sync"

	"ftqc/internal/decoder"
)

// Rotated surface codes: d² data qubits on a d×d grid (odd d), checks
// on the (d+1)×(d+1) cell lattice between them — Z-type where the cell
// coordinate sum is even, X-type where it is odd, corners dropped, and
// only every other weight-2 cell kept along each boundary (X along the
// top and bottom rows, Z along the left and right columns), for
// (d²−1)/2 checks per sector. This is the ~2× qubit saving over the
// planar layout at equal distance. Logical X runs down the left
// column, logical Z along the top row, mirroring the planar detectors.

// rotatedCache memoizes constructed rotated codes by distance.
var rotatedCache sync.Map // int → Code

// Rotated returns the memoized distance-d rotated surface code (odd
// d ≥ 3), shared across callers.
func Rotated(d int) Code {
	if v, ok := rotatedCache.Load(d); ok {
		return v.(Code)
	}
	v, _ := rotatedCache.LoadOrStore(d, newRotated(d))
	return v.(Code)
}

func newRotated(d int) Code {
	if d < 3 || d%2 == 0 {
		panic("surface: rotated distance must be odd and at least 3")
	}
	nq := d * d
	at := func(i, j int) int {
		if i < 0 || i >= d || j < 0 || j >= d {
			return -1
		}
		return i*d + j
	}
	// Cell a(i,j) covers the data square {(i−1,j−1)..(i,j)}. Its
	// corners in grid order: NW=(i−1,j−1), NE=(i−1,j), SW=(i,j−1),
	// SE=(i,j). The orders are chosen for hook alignment — an ancilla
	// fault mid-schedule spreads to the corners of the remaining
	// steps, and the dangerous weight-2 hook {step 2, step 3} must
	// run perpendicular to the logical its sector's errors could
	// complete. Z-cell hooks are Z errors (dangerous horizontally — Z
	// chains end on the left/right columns), so Z cells read in N
	// order (NW, SW, NE, SE) and hook vertically; X-cell hooks are X
	// errors (dangerous vertically), so X cells read in Z order
	// (NW, NE, SW, SE) and hook horizontally. Either order reads the
	// diagonal Z/X reader pair of every data qubit at distinct steps.
	var zOrd, xOrd [][4]int
	for i := 0; i <= d; i++ {
		for j := 0; j <= d; j++ {
			ztype := (i+j)%2 == 0
			// Boundary rows keep only X cells, boundary columns only Z
			// cells; corners (needing both) drop out.
			if (i == 0 || i == d) && ztype {
				continue
			}
			if (j == 0 || j == d) && !ztype {
				continue
			}
			nw, ne := at(i-1, j-1), at(i-1, j)
			sw, se := at(i, j-1), at(i, j)
			if ztype {
				zOrd = append(zOrd, [4]int{nw, sw, ne, se})
			} else {
				xOrd = append(xOrd, [4]int{nw, ne, sw, se})
			}
		}
	}
	// Failure detectors: supp(Z_L) = top row, supp(X_L) = left column.
	detX := make([]int, d)
	detZ := make([]int, d)
	for k := 0; k < d; k++ {
		detX[k] = k
		detZ[k] = k * d
	}
	graphs := [2]*decoder.Graph{readerGraph("rotated", nq, zOrd), readerGraph("rotated", nq, xOrd)}
	return NewCode("rotated", d, nq, graphs, [2][][4]int{zOrd, xOrd}, [2][][]int{{detX}, {detZ}})
}
