package main

// Output checks. Each holds for any seed: it tests a property the
// method must have, or compares against a computation made apart from
// the program. None compares against a stored copy of earlier output.
// checks_test.go feeds every check a corrupted input.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"regexp"
	"sort"

	"stdcelltune/internal/dist"
	"stdcelltune/internal/exp"
	"stdcelltune/internal/liberty"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/stdcell"
)

// near reports whether got matches want to a relative 1e-9 (absolute
// 1e-12 near zero): the fold and the convolutions may associate sums
// differently from the recomputation, nothing more.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12+1e-9*math.Abs(want)
}

var nonFinite = regexp.MustCompile(`(?i)\b(nan|[+-]?inf)\b`)

// checkFinite rejects rendered output holding NaN or Inf.
func checkFinite(texts []string) error {
	for _, t := range texts {
		if m := nonFinite.FindString(t); m != "" {
			return fmt.Errorf("battery: rendered output contains %q", m)
		}
	}
	return nil
}

// checkTable3 requires every Table-3 choice to stay under the area cap.
func checkTable3(t *exp.Table3Result) error {
	if len(t.Best) == 0 {
		return fmt.Errorf("table3: no choices")
	}
	for _, b := range t.Best {
		if b.Met && b.AreaIncrease() >= exp.AreaCap {
			return fmt.Errorf("table3: %s at %.2f ns chose bound %g with area +%.2f%%, cap %.0f%%",
				b.Method, b.Clock, b.Bound, 100*b.AreaIncrease(), 100*exp.AreaCap)
		}
	}
	return nil
}

// checkHeadline requires the sigma-ceiling library at the
// high-performance clock to lower design sigma.
func checkHeadline(base, tuned *stattime.DesignStats) error {
	if !(tuned.Design.Sigma < base.Design.Sigma) {
		return fmt.Errorf("headline: tuned design sigma %g not below baseline %g", tuned.Design.Sigma, base.Design.Sigma)
	}
	return nil
}

// checkDesignStats recomputes eq. (11) from the path distributions —
// design mu is the sum of path means, design sigma the root-sum-square
// of path sigmas — and eqs. (5) and (10) at rho=0 for a sample of
// paths from their steps' library statistics. As in the paper's model,
// tie cells contribute nothing and a quarantined cell contributes its
// nominal delay with zero sigma.
func checkDesignStats(ds *stattime.DesignStats, stat *statlib.Library) error {
	if len(ds.Paths) == 0 {
		return fmt.Errorf("eq11: design has no paths")
	}
	mu, v := 0.0, 0.0
	for _, p := range ds.Paths {
		mu += p.Dist.Mu
		v += p.Dist.Sigma * p.Dist.Sigma
	}
	if !near(ds.Design.Mu, mu) || !near(ds.Design.Sigma, math.Sqrt(v)) {
		return fmt.Errorf("eq11: design (mu %g, sigma %g), paths give (mu %g, sigma %g)",
			ds.Design.Mu, ds.Design.Sigma, mu, math.Sqrt(v))
	}
	if ds.Rho != 0 {
		return nil
	}
	step := len(ds.Paths)/16 + 1
	for i := 0; i < len(ds.Paths); i += step {
		p := ds.Paths[i]
		pm, pv := 0.0, 0.0
		for _, s := range p.Path.Steps {
			if s.Inst.Spec.Kind == stdcell.KindTie {
				continue // tie cells carry no timing arc and no variation
			}
			n, err := stattime.StepStats(s, stat)
			if err != nil && stat.Quarantined(s.Inst.Spec.Name) {
				n, err = dist.Normal{Mu: s.Delay}, nil // nominal delay, zero sigma
			}
			if err != nil {
				return fmt.Errorf("eq10: path %d: %w", i, err)
			}
			pm += n.Mu
			pv += n.Sigma * n.Sigma
		}
		if !near(p.Dist.Mu, pm) || !near(p.Dist.Sigma, math.Sqrt(pv)) {
			return fmt.Errorf("eq10: path %d (mu %g, sigma %g), steps give (mu %g, sigma %g)",
				i, p.Dist.Mu, p.Dist.Sigma, pm, math.Sqrt(pv))
		}
	}
	return nil
}

// checkFold recomputes, for a sample of LUT entries, the mean and the
// unbiased sigma across the Monte-Carlo instances with the two-pass
// formulas, and compares them with the statistical library.
func checkFold(stat *statlib.Library, instances []*liberty.Library) error {
	names := make([]string, 0, len(stat.Cells))
	for n := range stat.Cells {
		names = append(names, n)
	}
	sort.Strings(names)
	checked := 0
	for ci := 0; ci < len(names); ci += 7 {
		cell := stat.Cells[names[ci]]
		if len(cell.Pins) == 0 || len(cell.Pins[0].Arcs) == 0 {
			continue
		}
		pin, arc := cell.Pins[0], cell.Pins[0].Arcs[0]
		nl, ns := arc.MeanRise.Dims()
		i, j := (ci/7)%nl, (ci/3)%ns
		xs := make([]float64, 0, len(instances))
		for k, inst := range instances {
			ta := instanceArc(inst, cell.Name, pin.Name, arc.RelatedPin)
			if ta == nil || ta.CellRise == nil {
				return fmt.Errorf("fold: instance %d lacks %s/%s<-%s", k, cell.Name, pin.Name, arc.RelatedPin)
			}
			xs = append(xs, ta.CellRise.At(i, j))
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		sigma := math.Sqrt(ss / float64(len(xs)-1))
		gotMean, gotSigma := arc.MeanRise.At(i, j), arc.SigmaRise.At(i, j)
		if !near(gotMean, mean) || !near(gotSigma, sigma) {
			return fmt.Errorf("fold: %s/%s<-%s entry (%d,%d): library (mean %g, sigma %g), instances give (mean %g, sigma %g)",
				cell.Name, pin.Name, arc.RelatedPin, i, j, gotMean, gotSigma, mean, sigma)
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("fold: no LUT entry sampled")
	}
	return nil
}

// instanceArc finds the first timing arc of cell/pin related to the
// given input, the one statlib.Pin.Arc resolves.
func instanceArc(lib *liberty.Library, cell, pin, related string) *liberty.TimingArc {
	c := lib.Cell(cell)
	if c == nil {
		return nil
	}
	for _, p := range c.Pins {
		if p.Name != pin {
			continue
		}
		for _, a := range p.Timing {
			if a.RelatedPin == related {
				return a
			}
		}
	}
	return nil
}

// sha256Hex is the client's own hash of an artifact.
func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// artifactRef is one entry of a job document's artifact inventory.
type artifactRef struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Size   int    `json:"size_bytes"`
}

// checkArtifacts recomputes every artifact's SHA-256 and size and
// compares them with the job's inventory.
func checkArtifacts(inv []artifactRef, blobs map[string][]byte) error {
	if len(inv) == 0 {
		return fmt.Errorf("artifacts: empty inventory")
	}
	for _, a := range inv {
		b, ok := blobs[a.Name]
		if !ok {
			return fmt.Errorf("artifacts: %s not fetched", a.Name)
		}
		if got := sha256Hex(b); got != a.SHA256 || len(b) != a.Size {
			return fmt.Errorf("artifacts: %s hashes to %s (%d bytes), inventory says %s (%d bytes)",
				a.Name, got, len(b), a.SHA256, a.Size)
		}
	}
	return nil
}

// checkReplay requires a warm job to answer the cold job's artifact
// set exactly.
func checkReplay(cold, warm []artifactRef) error {
	if len(cold) != len(warm) {
		return fmt.Errorf("replay: warm job has %d artifacts, cold had %d", len(warm), len(cold))
	}
	for i := range cold {
		if cold[i] != warm[i] {
			return fmt.Errorf("replay: warm artifact %+v differs from cold %+v", warm[i], cold[i])
		}
	}
	return nil
}

// checkCount compares one query answer with the client's own count.
func checkCount(what string, got, want float64) error {
	if !near(got, want) {
		return fmt.Errorf("query %s answered %g, the client's scan of the artifacts gives %g", what, got, want)
	}
	return nil
}

// whatIfMetrics mirrors the baseline/result block of a what-if answer.
type whatIfMetrics struct {
	Area  float64 `json:"area_um2"`
	WNS   float64 `json:"wns_ns"`
	Mu    float64 `json:"mu_ns"`
	Sigma float64 `json:"sigma_ns"`
}

// whatIf is the part of a stdcelltune-whatif/1 answer the checks read.
type whatIf struct {
	Op          string        `json:"op"`
	From        string        `json:"from"`
	To          string        `json:"to"`
	Changed     int           `json:"changed"`
	Baseline    whatIfMetrics `json:"baseline"`
	Result      whatIfMetrics `json:"result"`
	Full        int           `json:"full_analyses"`
	Incremental int           `json:"incremental_updates"`
}

// checkSubstituteArea requires a substitute's area change to be
// exactly the number of swapped instances times the two cells' area
// difference.
func checkSubstituteArea(w *whatIf, areaFrom, areaTo float64) error {
	want := float64(w.Changed) * (areaTo - areaFrom)
	got := w.Result.Area - w.Baseline.Area
	if math.Abs(got-want) > 1e-6*(1+math.Abs(w.Baseline.Area)) {
		return fmt.Errorf("substitute %s->%s: area moved %g for %d swaps, cell areas give %g",
			w.From, w.To, got, w.Changed, want)
	}
	return nil
}

// checkWiden requires widening never to raise area and never to push
// WNS below min(0, baseline WNS).
func checkWiden(w *whatIf) error {
	if w.Result.Area > w.Baseline.Area {
		return fmt.Errorf("widen: area rose from %g to %g", w.Baseline.Area, w.Result.Area)
	}
	if floor := math.Min(0, w.Baseline.WNS); w.Result.WNS < floor {
		return fmt.Errorf("widen: WNS %g below min(0, baseline %g)", w.Result.WNS, w.Baseline.WNS)
	}
	return nil
}

// checkScratch compares a substitute answer with the client's
// from-scratch analysis of the resized design.
func checkScratch(w *whatIf, area, wns, mu, sigma float64) error {
	if !near(w.Result.Area, area) || !near(w.Result.WNS, wns) || !near(w.Result.Mu, mu) || !near(w.Result.Sigma, sigma) {
		return fmt.Errorf("substitute %s->%s: answered (area %g, wns %g, mu %g, sigma %g), from scratch (area %g, wns %g, mu %g, sigma %g)",
			w.From, w.To, w.Result.Area, w.Result.WNS, w.Result.Mu, w.Result.Sigma, area, wns, mu, sigma)
	}
	return nil
}

// checkVerdict compares the X-Query-Cache header with the plan.
func checkVerdict(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: X-Query-Cache %q, plan says %q", what, got, want)
	}
	return nil
}

// scratchSubstitute redoes a substitute what-if on the paper library
// from its artifacts alone: parse the library and the netlist, resize
// every instance of the swapped cell on a fresh copy, and run a full
// sta.Analyze plus stattime — no incremental engine anywhere.
func scratchSubstitute(blobs map[string][]byte, w *whatIf) error {
	lib, err := liberty.Parse(string(blobs["statlib.lib"]))
	if err != nil {
		return fmt.Errorf("scratch: parse statlib.lib: %w", err)
	}
	stat, err := statlib.FromLiberty(lib)
	if err != nil {
		return fmt.Errorf("scratch: statistical library: %w", err)
	}
	cat := stdcell.NewCatalogue(stdcell.Typical)
	nl, err := netlist.ParseVerilog(string(blobs["netlist.v"]), cat)
	if err != nil {
		return fmt.Errorf("scratch: parse netlist.v: %w", err)
	}
	to := cat.Spec(w.To)
	if to == nil {
		return fmt.Errorf("scratch: unknown cell %s", w.To)
	}
	for _, inst := range nl.Instances {
		if inst.Spec.Name == w.From {
			if err := nl.Resize(inst, to); err != nil {
				return fmt.Errorf("scratch: resize %s: %w", inst.Name, err)
			}
		}
	}
	r, err := sta.Analyze(nl, sta.DefaultConfig(5.0))
	if err != nil {
		return fmt.Errorf("scratch: sta: %w", err)
	}
	ds, err := stattime.Analyze(r, stat, 0)
	if err != nil {
		return fmt.Errorf("scratch: stattime: %w", err)
	}
	return checkScratch(w, nl.Area(), r.WNS(), ds.Design.Mu, ds.Design.Sigma)
}
