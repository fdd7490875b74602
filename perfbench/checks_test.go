package main

// Each output check must accept the program's real output and reject
// a corrupted copy of it.

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"stdcelltune/internal/core"
	"stdcelltune/internal/exp"
	"stdcelltune/internal/query"
	"stdcelltune/internal/service"
	"stdcelltune/internal/service/cache"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/variation"
)

func wantReject(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: corrupted input accepted", what)
	}
}

func wantAccept(t *testing.T, what string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: real output rejected: %v", what, err)
	}
}

func smallFlow(t *testing.T) *exp.Flow {
	t.Helper()
	f, err := exp.NewFlow(context.Background(), exp.SmallFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCheckFinite(t *testing.T) {
	wantAccept(t, "finite", checkFinite([]string{"sigma 0.12 info infinite-loop-free"}))
	wantReject(t, "NaN", checkFinite([]string{"ok", "sigma NaN"}))
	wantReject(t, "Inf", checkFinite([]string{"area +Inf um2"}))
}

func TestCheckDesignStatsAndHeadline(t *testing.T) {
	f := smallFlow(t)
	_, base, err := f.BaselineStats(5.0)
	if err != nil {
		t.Fatal(err)
	}
	_, tuned, err := f.TunedStats(core.SigmaCeiling, 0.02, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	wantAccept(t, "eq11", checkDesignStats(base, f.Stat))
	wantAccept(t, "headline", checkHeadline(base, tuned))
	wantReject(t, "headline swapped", checkHeadline(tuned, base))

	saved := base.Design
	base.Design.Sigma *= 1.001
	wantReject(t, "eq11 sigma", checkDesignStats(base, f.Stat))
	base.Design = saved
	base.Design.Mu += 1e-3
	wantReject(t, "eq11 mu", checkDesignStats(base, f.Stat))
	base.Design = saved

	// A path sigma off its steps, with the design kept consistent with
	// the corrupted path so only eq. (10) can catch it.
	p := &base.Paths[0]
	old := p.Dist.Sigma
	p.Dist.Sigma *= 1.01
	v := 0.0
	for _, q := range base.Paths {
		v += q.Dist.Sigma * q.Dist.Sigma
	}
	base.Design.Sigma = math.Sqrt(v)
	wantReject(t, "eq10 path sigma", checkDesignStats(base, f.Stat))
	p.Dist.Sigma, base.Design = old, saved
}

func TestCheckTable3(t *testing.T) {
	good := &exp.Table3Result{Best: []exp.MethodBest{{Met: true, AreaBase: 100, AreaTuned: 105}}}
	wantAccept(t, "table3", checkTable3(good))
	bad := &exp.Table3Result{Best: []exp.MethodBest{{Met: true, AreaBase: 100, AreaTuned: 110.5}}}
	wantReject(t, "table3 over cap", checkTable3(bad))
	wantReject(t, "table3 empty", checkTable3(&exp.Table3Result{}))
}

func TestCheckFold(t *testing.T) {
	cfg := variation.Config{N: 6, Seed: 3, CharNoise: 0.02}
	libs := variation.Instances(stdcell.NewCatalogue(stdcell.Typical), cfg)
	stat, err := statlib.Build("t", libs)
	if err != nil {
		t.Fatal(err)
	}
	wantAccept(t, "fold", checkFold(stat, libs))
	for _, c := range libs[2].Cells {
		for _, p := range c.Pins {
			for _, a := range p.Timing {
				if a.CellRise == nil {
					continue
				}
				nl, ns := a.CellRise.Dims()
				for i := 0; i < nl; i++ {
					for j := 0; j < ns; j++ {
						a.CellRise.Set(i, j, a.CellRise.At(i, j)*1.5)
					}
				}
			}
		}
	}
	wantReject(t, "fold with a scaled instance", checkFold(stat, libs))
}

// pipelineArtifacts runs one small service job in process.
func pipelineArtifacts(t *testing.T) (string, map[string][]byte) {
	t.Helper()
	spec := service.Spec{Design: "mcu-small", Instances: 3, Seed: 1}
	blobs, err := service.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Digest(), blobs
}

func TestServiceChecks(t *testing.T) {
	dig, blobs := pipelineArtifacts(t)
	var inv []artifactRef
	for name, b := range blobs {
		inv = append(inv, artifactRef{Name: name, SHA256: sha256Hex(b), Size: len(b)})
	}
	wantAccept(t, "artifacts", checkArtifacts(inv, blobs))
	flipped := make(map[string][]byte, len(blobs))
	for k, v := range blobs {
		flipped[k] = v
	}
	nv := append([]byte(nil), blobs["netlist.v"]...)
	nv[len(nv)/2] ^= 1
	flipped["netlist.v"] = nv
	wantReject(t, "artifact with a flipped bit", checkArtifacts(inv, flipped))

	wantAccept(t, "replay", checkReplay(inv, append([]artifactRef(nil), inv...)))
	warm := append([]artifactRef(nil), inv...)
	warm[0].SHA256 = strings.Repeat("0", 64)
	wantReject(t, "replay with other bytes", checkReplay(inv, warm))

	wantAccept(t, "verdict", checkVerdict("q", "hit", "hit"))
	wantReject(t, "verdict", checkVerdict("q", "miss", "hit"))

	sc, err := scanArtifacts(blobs["statlib.lib"], blobs["netlist.v"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scanArtifacts([]byte("library (x) {}"), blobs["netlist.v"]); err == nil {
		t.Error("scan of a library without cells accepted")
	}
	plan := buildPlan(sc)
	if plan.rounds() < 10 {
		t.Errorf("plan supports %d rounds, want at least 10", plan.rounds())
	}

	store, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	entry, err := store.Put(dig, blobs)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := service.BuildQueryStore(entry)
	if err != nil {
		t.Fatal(err)
	}
	res, err := qs.Execute(mustParse(t, firstQuery))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(res)
	n, err := groupedCount(body)
	if err != nil {
		t.Fatal(err)
	}
	wantAccept(t, "grouped count", checkCount("grouped", n, float64(sc.total)))
	wantReject(t, "grouped count off by one", checkCount("grouped", n+1, float64(sc.total)))

	pair := plan.pairs[0]
	wr, err := qs.Substitute(pair[0], pair[1])
	if err != nil {
		t.Fatal(err)
	}
	var w whatIf
	b, _ := json.Marshal(wr)
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	wantAccept(t, "substitute area", checkSubstituteArea(&w, sc.area[pair[0]], sc.area[pair[1]]))
	wantAccept(t, "substitute from scratch", scratchSubstitute(blobs, &w))
	w.Result.Area += 1
	wantReject(t, "substitute area", checkSubstituteArea(&w, sc.area[pair[0]], sc.area[pair[1]]))
	wantReject(t, "substitute from scratch area", scratchSubstitute(blobs, &w))
	w.Result.Area -= 1
	w.Result.Sigma *= 1.001
	wantReject(t, "substitute from scratch sigma", scratchSubstitute(blobs, &w))

	wr, err = qs.Widen(1.2)
	if err != nil {
		t.Fatal(err)
	}
	b, _ = json.Marshal(wr)
	w = whatIf{}
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	wantAccept(t, "widen", checkWiden(&w))
	up := w
	up.Result.Area = up.Baseline.Area + 1
	wantReject(t, "widen raising area", checkWiden(&up))
	late := w
	late.Result.WNS = math.Min(0, late.Baseline.WNS) - 0.01
	wantReject(t, "widen worsening WNS", checkWiden(&late))
}

func TestClassAccounting(t *testing.T) {
	c := &class{name: "x"}
	c.ok(2)
	c.fail()
	c.ok(4)
	if c.attempted != 3 || c.failed != 1 || c.median() != 3 {
		t.Errorf("attempted %d failed %d median %g, want 3, 1 and 3 (failures never timed)", c.attempted, c.failed, c.median())
	}
}

func mustParse(t *testing.T, doc string) *query.Query {
	t.Helper()
	q, err := query.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return q
}
