package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/toric"
)

// The flag layer. The flags below mean the same thing in every
// subcommand that takes one: it registers them through newFlags, with
// its own default and usage text, and parse runs one validation pass
// (checkGrid) over all of them after fs.Parse and before anything is
// printed.
var sharedFlags = []string{"L", "T", "p", "q", "samples", "decoder", "window", "commit", "seed"}

// shared is one shared flag a subcommand takes. The default's type
// (string, int, float64 or uint64) is the flag's type, so a single -L
// reads as an int in -h and a swept one as a list.
type shared struct {
	name  string
	def   any
	usage string
}

// newFlags returns a subcommand's flag set with the shared flags it
// takes registered.
func newFlags(cmd string, flags ...shared) *flag.FlagSet {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	for _, f := range flags {
		switch d := f.def.(type) {
		case string:
			fs.String(f.name, d, f.usage)
		case int:
			fs.Int(f.name, d, f.usage)
		case float64:
			fs.Float64(f.name, d, f.usage)
		case uint64:
			fs.Uint64(f.name, d, f.usage)
		default:
			panic(fmt.Sprintf("ftqc: flag -%s has a default of type %T", f.name, d))
		}
	}
	return fs
}

// parse parses a subcommand's flags and checks every shared flag it
// took; a refused value exits 2 through require. stream is the one
// subcommand whose -window 0 still slides (stream.DefaultWindow) rather
// than decoding the whole volume.
func parse(fs *flag.FlagSet, args []string) grid {
	fs.Parse(args)
	v := map[string]string{}
	for _, name := range sharedFlags {
		if f := fs.Lookup(name); f != nil {
			v[name] = f.Value.String()
		}
	}
	g, err := checkGrid(v, fs.Name() == "stream")
	require(fs, err)
	return g
}

// require refuses a flag value the subcommand cannot run with: err names
// the flag and the accepted range, and require prints it on stderr and
// exits 2 before anything is printed.
func require(fs *flag.FlagSet, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
		os.Exit(2)
	}
}

// check is the refusal of flag -name at value v unless ok holds.
func check(ok bool, name string, v any, want string) error {
	if ok {
		return nil
	}
	return fmt.Errorf("-%s must be %s (got %v)", name, want, v)
}

// grid is what the shared flags say once checked: the distances and
// rates a sweep runs, the rounds and window of each distance, and the
// Monte Carlo settings. A flag the subcommand does not take leaves its
// field zero (-q: −1).
type grid struct {
	ls          []int     // -L
	ps          []float64 // -p
	count, perL int       // -T: count rounds, or perL·L when perL > 0
	q           float64   // -q; −1 tracks p
	samples     int
	decoder     string            // -decoder as given
	kind        toric.DecoderKind // the decoder it names
	window      int
	commit      int
	slides      bool // a zero -window still slides (stream.DefaultWindow)
	seed        uint64
}

// rounds is the number of rounds a shot at distance l runs.
func (g grid) rounds(l int) int {
	if g.perL > 0 {
		return g.perL * l
	}
	return g.count
}

// qOf is the measurement error rate that goes with data rate p.
func (g grid) qOf(p float64) float64 {
	if g.q >= 0 {
		return g.q
	}
	return p
}

// win is the sliding window (height, commit) of a cell at distance l,
// filled in by stream.WindowShape; a zero height is a whole-volume
// decode. checkGrid refuses a grid any of whose windows is an error.
func (g grid) win(l int) (w, c int, err error) {
	if g.window == 0 && !g.slides {
		return 0, 0, nil
	}
	return stream.WindowShape(l, g.window, g.commit)
}

// checkGrid is the one validation pass over the shared flags. v holds
// the text of each one the subcommand took, as fs.Parse left it; slides
// says a -window of 0 means stream.DefaultWindow. A refusal names the
// flag and the accepted range.
func checkGrid(v map[string]string, slides bool) (grid, error) {
	g := grid{q: -1, slides: slides}
	var err error
	if s, ok := v["L"]; ok {
		g.ls, err = list("L", s, strconv.Atoi, func(l int) bool { return l >= 2 }, "comma-separated distances, each at least 2")
		if err != nil {
			return g, err
		}
	}
	if s, ok := v["p"]; ok {
		parseP := func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
		g.ps, err = list("p", s, parseP, isProb, "comma-separated probabilities in [0, 1]")
		if err != nil {
			return g, err
		}
	}
	if s, ok := v["T"]; ok {
		k, perL := strings.CutSuffix(s, "L")
		if perL && k == "" {
			k = "1"
		}
		n, err := strconv.Atoi(k)
		for _, l := range g.ls {
			if perL && n > math.MaxInt/l {
				err = strconv.ErrRange
			}
		}
		if err := check(err == nil && n >= 1, "T", s, "a positive count, or kL for k times the distance"); err != nil {
			return g, err
		}
		if perL {
			g.perL = n
		} else {
			g.count = n
		}
	}
	if s, ok := v["q"]; ok {
		g.q, err = strconv.ParseFloat(s, 64)
		if err := check(err == nil && (g.q == -1 || isProb(g.q)), "q", s, "-1 (track p) or a probability in [0, 1]"); err != nil {
			return g, err
		}
	}
	if s, ok := v["samples"]; ok {
		g.samples, err = strconv.Atoi(s)
		if err := check(err == nil && g.samples >= 1, "samples", s, "at least 1"); err != nil {
			return g, err
		}
	}
	if s, ok := v["decoder"]; ok {
		g.decoder = s
		switch s {
		case "exact":
			g.kind = toric.DecoderExact
		case "uf", "unionfind":
			g.kind = toric.DecoderUnionFind
		default:
			return g, check(false, "decoder", s, "exact or uf (alias unionfind)")
		}
	}
	if s, ok := v["window"]; ok {
		want := "0 (whole-volume decode) or at least 2"
		if slides {
			want = "0 (the 2L default) or at least 2"
		}
		g.window, err = strconv.Atoi(s)
		if err := check(err == nil && (g.window == 0 || g.window >= 2), "window", s, want); err != nil {
			return g, err
		}
	}
	if s, ok := v["commit"]; ok {
		g.commit, err = strconv.Atoi(s)
		if err != nil || g.window == 0 && !slides && g.commit != 0 {
			return g, check(false, "commit", s, "0 unless -window sets a streaming window")
		}
		for _, l := range g.ls {
			if w, c, err := g.win(l); err != nil || w > 0 && c >= w {
				w, _, _ = stream.WindowShape(l, g.window, 0) // the range to name, whatever -commit said
				return g, check(false, "commit", s, fmt.Sprintf("in [1, window-1] = [1, %d] at L=%d", w-1, l))
			}
		}
	}
	if s, ok := v["seed"]; ok {
		g.seed, err = strconv.ParseUint(s, 10, 64)
		if err := check(err == nil, "seed", s, "an unsigned integer"); err != nil {
			return g, err
		}
	}
	return g, nil
}

func isProb(p float64) bool { return p >= 0 && p <= 1 }

// list parses the comma-separated value s of flag -name, each entry by
// parse and held to ok.
func list[T any](name, s string, parse func(string) (T, error), ok func(T) bool, want string) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil || !ok(v) {
			return nil, check(false, name, strconv.Quote(f), want)
		}
		out = append(out, v)
	}
	return out, nil
}

// table is the sweep toric, spacetime, stream and circuit print: a row
// per error rate, a column per distance, an optional cross-check column
// at the smallest distance, and the crossing of the smallest and the
// largest distance's failure curves.
type table struct {
	corner string                                      // top-left label
	rowFmt string                                      // format of a row's error rate
	width  int                                         // width of a distance column
	head   func(l int) string                          // head of distance l's column
	cell   func(l int, p float64, seed uint64) float64 // failure rate of one cell
	// check, when set, is the cross-check column under checkHead. It gets
	// the seed of its row's last cell and adds its own offset.
	checkHead string
	check     func(p float64, seed uint64) float64
	// crossing formats the crossing line from (smallest L, largest L,
	// crossing); empty prints none.
	crossing string
}

// print runs the sweep over ls × ps in row order, advancing seed once
// per cell, and returns the crossing (NaN when there is none).
func (t table) print(ls []int, ps []float64, seed uint64) float64 {
	fmt.Printf("%-8s", t.corner)
	for _, l := range ls {
		fmt.Printf(" %-*s", t.width, t.head(l))
	}
	if t.check != nil {
		fmt.Printf(" %-12s", t.checkHead)
	}
	fmt.Println()
	small := make([]float64, len(ps))
	large := make([]float64, len(ps))
	for i, p := range ps {
		fmt.Printf(t.rowFmt, p)
		for j, l := range ls {
			seed++
			r := t.cell(l, p, seed)
			if j == 0 {
				small[i] = r
			}
			large[i] = r
			fmt.Printf(" %-*.4e", t.width, r)
		}
		if t.check != nil {
			fmt.Printf(" %-12.4e", t.check(p, seed))
		}
		fmt.Println()
	}
	if t.crossing == "" || len(ls) < 2 {
		return math.NaN()
	}
	lo, hi := ls[0], ls[len(ls)-1]
	cross := spacetime.CrossingEstimate(ps, small, large)
	if math.IsNaN(cross) {
		fmt.Printf("\nno L=%d / L=%d crossing on this grid (threshold outside it)\n", lo, hi)
	} else {
		fmt.Printf("\n"+t.crossing+"\n", lo, hi, cross)
	}
	return cross
}

// exactCheck says whether the exact-MWPM cross-check column runs. It
// only pays off where the matcher is cheap, so a smallest distance
// above 8 (union-find territory) skips it with a note.
func exactCheck(on bool, l int) bool {
	const maxL = 8
	if on && l > maxL {
		fmt.Printf("(skipping exact cross-check: L=%d > %d is union-find territory)\n", l, maxL)
		return false
	}
	return on
}
