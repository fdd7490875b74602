package main

// The traced run: spans recorded from this file around direct calls
// into each layer's public functions, on the workload's own inputs.
// The spans stay in memory (obs.Tracer), are written once at the end
// as a Chrome trace, and cmd/tracedur reads each layer's total back
// out of that file. End-to-end numbers never come from this run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"stdcelltune"
	"stdcelltune/internal/core"
	"stdcelltune/internal/exp"
	"stdcelltune/internal/liberty"
	"stdcelltune/internal/lut"
	"stdcelltune/internal/netlist"
	"stdcelltune/internal/obs"
	"stdcelltune/internal/pathmc"
	"stdcelltune/internal/power"
	"stdcelltune/internal/query"
	"stdcelltune/internal/restrict"
	"stdcelltune/internal/rtlgen"
	"stdcelltune/internal/service/cache"
	"stdcelltune/internal/service/journal"
	"stdcelltune/internal/sta"
	"stdcelltune/internal/statlib"
	"stdcelltune/internal/stattime"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/synth"
	"stdcelltune/internal/variation"
)

// spans wraps the in-memory tracer and remembers how many operations
// each span name covered, so a layer's figure is its total span time
// per operation.
type spans struct {
	t   *obs.Tracer
	ops map[string]int
}

func newSpans() *spans { return &spans{t: obs.NewTracer(nil), ops: make(map[string]int)} }

// span opens one span covering n operations and returns its closer.
func (s *spans) spanN(name string, n int) func() {
	sp := s.t.Start(name, "bench")
	s.ops[name] += n
	return sp.End
}

func (s *spans) span(name string) func() { return s.spanN(name, 1) }

// around runs fn inside a span of n operations.
func (s *spans) around(name string, n int, fn func() error) error {
	end := s.spanN(name, n)
	err := fn()
	end()
	return err
}

// tracedur sums the named spans of a Chrome trace file with
// cmd/tracedur and returns the total in nanoseconds.
func tracedur(e env, file, name string) (float64, error) {
	out, err := exec.Command(filepath.Join(e.bin, "tracedur"), "-trace", file, "-span", name).Output()
	if err != nil {
		return 0, fmt.Errorf("tracedur %s: %w", name, err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// perOp writes the spans and reads back each layer's time per
// operation in the given unit (ns per unit).
func (s *spans) perOp(e env, file string, names map[string]string) (map[string]metric, error) {
	if err := s.t.WriteChromeTraceFile(file); err != nil {
		return nil, err
	}
	units := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}
	out := make(map[string]metric, len(names))
	for span, unit := range names {
		total, err := tracedur(e, file, span)
		if err != nil {
			return nil, err
		}
		out[span+"_"+unit] = metric{total / units[unit] / float64(s.ops[span]), unit}
	}
	return out, nil
}

// layerSpans names every span the traced run records and the unit its
// per-operation figure is reported in.
var layerSpans = map[string]string{
	"variation.instances": "ms", "statlib.build": "ms", "statlib.stream": "ms", "statlib.shard_merge": "ms",
	"core.tune": "ms", "lut.rectangle": "us", "lut.lookup": "ns",
	"synth.baseline": "ms", "synth.restricted": "ms", "sta.full": "ms", "sta.incremental": "us",
	"stattime.analyze": "ms", "power.estimate": "ms", "pathmc.simulate": "ms",
	"liberty.parse": "ms", "netlist.parse_verilog": "ms",
	"query.build": "ms", "query.parse": "us", "query.execute": "ms", "query.substitute": "ms", "query.widen": "ms",
	"cache.lookup": "us", "cache.put": "ms", "journal.append": "us",
	"facade.characterize": "ms", "facade.tune": "ms", "facade.synthesize": "ms", "facade.analyze_variation": "ms",
	"exp.table1": "ms", "exp.fig8": "ms", "exp.table3": "ms", "exp.fig15": "ms", "exp.fig16": "ms",
	"exp.ext_pnr": "ms", "exp.ext_power": "ms", "exp.ext_corners": "ms",
	"http.cold_job": "ms", "http.warm_job": "ms", "http.first_query": "ms", "http.widen": "ms",
	"http.query_miss": "ms", "http.query_hit": "ms", "http.substitute": "ms", "http.healthz": "ms",
}

// tracedInputs are a workload's own inputs as the traced run uses them:
// the flow the battery runs on and the cold-job spec the session
// submits.
type tracedInputs struct {
	flow exp.FlowConfig
	spec func(r int) string
}

func inputsFor(workload string, seed int64) tracedInputs {
	if workload == "battery" {
		cfg := batteryConfig(seed, 0)
		return tracedInputs{flow: cfg, spec: func(r int) string {
			return fmt.Sprintf(`{"design":"mcu-small","instances":%d,"seed":%d}`, cfg.Samples, 1000*seed+int64(r)+1)
		}}
	}
	cfg := exp.SmallFlowConfig()
	cfg.Samples = 50
	cfg.Seed = 1000*seed + 1
	return tracedInputs{flow: cfg, spec: func(r int) string { return smallSpec(seed, r) }}
}

// tracedRun produces every per-layer metric on the workload's inputs,
// plus the tracing overhead of the workload's own end-to-end figure.
func tracedRun(ctx context.Context, e env, workload string) (*result, error) {
	in := inputsFor(workload, e.seed)
	sp := newSpans()
	var c checks
	m := map[string]metric{}

	batOverhead, err := tracedBattery(ctx, in.flow, sp, m, &c)
	if err != nil {
		return nil, err
	}
	if err := tracedLayers(ctx, e, in.flow, sp); err != nil {
		return nil, err
	}
	sess, sessOverhead, err := tracedSession(e, in, sp, m, &c)
	if err != nil {
		return nil, err
	}
	// The operations of the traced run: two battery passes and the
	// session's two rounds.
	res := &result{Attempted: 2 * len(experiments)}
	for _, cl := range sess.classes() {
		res.Attempted += cl.attempted
		res.Failed += cl.failed
	}
	layers, err := sp.perOp(e, filepath.Join(e.work, "spans-"+workload+".json"), layerSpans)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	overhead := batOverhead
	if workload == "service" {
		overhead = sessOverhead
	}
	m["trace.overhead_pct"] = metric{overhead, "%"}
	res.Correct, res.Metrics = c.ok(), m
	return res, nil
}

// tracedBattery runs the 25 experiments once untraced and once traced,
// each on a fresh flow, and reads the layer counters around the traced
// pass. It returns the traced pass's overhead in percent.
func tracedBattery(ctx context.Context, cfg exp.FlowConfig, sp *spans, m map[string]metric, c *checks) (float64, error) {
	f, err := exp.NewFlow(ctx, cfg)
	if err != nil {
		return 0, err
	}
	plain := runExperiments(f, nil)
	if plain.failed != nil {
		return 0, plain.failed
	}
	f, err = exp.NewFlow(ctx, cfg)
	if err != nil {
		return 0, err
	}
	pool := obs.Default().Counter("robust.pool_tasks")
	full0, inc0, tasks0 := sta.FullAnalyses(), sta.IncrementalUpdates(), pool.Value()
	traced := runExperiments(f, sp.span)
	if traced.failed != nil {
		return 0, traced.failed
	}
	iters := 0
	for _, o := range f.SynthOutcomes() {
		iters += o.Iterations
	}
	m["battery.sta_full_analyses"] = metric{float64(sta.FullAnalyses() - full0), "count"}
	m["battery.sta_incremental_updates"] = metric{float64(sta.IncrementalUpdates() - inc0), "count"}
	m["battery.pool_tasks"] = metric{float64(pool.Value() - tasks0), "count"}
	m["battery.synth_iterations"] = metric{float64(iters), "count"}
	if traced.digest() != plain.digest() {
		c.add(fmt.Errorf("traced battery rendered different text than the untraced one"))
	}
	return 100 * (float64(traced.wall) - float64(plain.wall)) / float64(plain.wall), nil
}

// tracedLayers times direct calls into each layer on the flow's inputs.
func tracedLayers(ctx context.Context, e env, cfg exp.FlowConfig, sp *spans) error {
	cat := stdcell.NewCatalogue(cfg.Corner)
	vcfg := variation.Config{N: cfg.Samples, Seed: cfg.Seed, CharNoise: 0.02}
	var libs []*liberty.Library
	if err := sp.around("variation.instances", 1, func() (err error) {
		libs, err = variation.InstancesCtx(ctx, cat, vcfg)
		return err
	}); err != nil {
		return err
	}
	var stat *statlib.Library
	for i := 0; i < 3; i++ {
		if err := sp.around("statlib.build", 1, func() (err error) { stat, err = statlib.Build("bench", libs); return err }); err != nil {
			return err
		}
	}
	gen := func(i int) (*liberty.Library, error) { return libs[i], nil }
	for i := 0; i < 3; i++ {
		if err := sp.around("statlib.stream", 1, func() error { _, err := statlib.BuildStream("bench", len(libs), gen); return err }); err != nil {
			return err
		}
	}
	ranges := statlib.ShardRanges(len(libs), 5)
	if err := sp.around("statlib.shard_merge", 1, func() error {
		parts := make([]*statlib.Partial, len(ranges))
		for i, r := range ranges {
			p, err := statlib.FoldShard("bench", len(libs), len(ranges), i, r[0], r[1], gen)
			if err != nil {
				return err
			}
			parts[i] = p
		}
		_, err := statlib.MergeShards("bench", len(libs), libs[0], parts)
		return err
	}); err != nil {
		return err
	}

	tuned := 0
	var set *restrict.Set
	end := sp.spanN("core.tune", 0)
	for _, meth := range core.Methods {
		for _, b := range core.SweepBounds(meth) {
			s, _, err := core.NewTuner(stat).Tune(core.ParamsFor(meth, b))
			if err != nil {
				end()
				return fmt.Errorf("tune %s @%g: %w", meth, b, err)
			}
			if meth == core.SigmaCeiling && b == 0.02 {
				set = s
			}
			tuned++
		}
	}
	end()
	sp.ops["core.tune"] += tuned

	var tables []*lut.Table
	for _, name := range sortedCells(stat) {
		for _, p := range stat.Cells[name].Pins {
			for _, a := range p.Arcs {
				tables = append(tables, a.SigmaRise)
			}
		}
	}
	end = sp.spanN("lut.rectangle", len(tables))
	for _, t := range tables {
		t.Threshold(t.Max() / 2).LargestRectangle()
	}
	end()
	const lookups = 200000
	sink := 0.0
	end = sp.spanN("lut.lookup", lookups)
	for i := 0; i < lookups; i++ {
		t := tables[i%len(tables)]
		nl, ns := t.Dims()
		sink += t.Lookup(t.Loads[nl-1]*float64(i%97)/97, t.Slews[ns-1]*float64(i%89)/89)
	}
	end()
	if sink != sink {
		return fmt.Errorf("lut lookups returned NaN")
	}

	mcu, err := rtlgen.Build(cfg.MCU)
	if err != nil {
		return err
	}
	const clock = 5.0
	var base, restricted *synth.Result
	if err := sp.around("synth.baseline", 1, func() (err error) {
		base, err = synth.SynthesizeCtx(ctx, "mcu", mcu.Net, cat, synth.DefaultOptions(clock))
		return err
	}); err != nil {
		return err
	}
	ropts := synth.DefaultOptions(clock)
	ropts.Restrict = set
	if err := sp.around("synth.restricted", 1, func() (err error) {
		restricted, err = synth.SynthesizeCtx(ctx, "mcu", mcu.Net, cat, ropts)
		return err
	}); err != nil {
		return err
	}
	staCfg := sta.DefaultConfig(clock)
	for i := 0; i < 3; i++ {
		if err := sp.around("sta.full", 1, func() error { _, err := sta.Analyze(restricted.Netlist, staCfg); return err }); err != nil {
			return err
		}
	}
	if err := incrementalSTA(restricted.Netlist, staCfg, sp); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if err := sp.around("stattime.analyze", 1, func() error { _, err := stattime.Analyze(restricted.Timing, stat, 0); return err }); err != nil {
			return err
		}
	}
	if err := sp.around("power.estimate", 1, func() error {
		_, err := power.Estimate(base.Netlist, base.Timing, power.DefaultConfig(clock))
		return err
	}); err != nil {
		return err
	}
	path, err := restricted.Timing.CriticalPath()
	if err != nil {
		return err
	}
	if err := sp.around("pathmc.simulate", 1, func() error { _, err := pathmc.Simulate(path, pathmc.DefaultConfig(cfg.Seed)); return err }); err != nil {
		return err
	}

	libText, err := liberty.WriteString(stat.ToLiberty())
	if err != nil {
		return err
	}
	if err := sp.around("liberty.parse", 1, func() error { _, err := liberty.Parse(libText); return err }); err != nil {
		return err
	}
	var vbuf bytes.Buffer
	if err := netlist.WriteVerilog(&vbuf, restricted.Netlist); err != nil {
		return err
	}
	var nl *netlist.Netlist
	if err := sp.around("netlist.parse_verilog", 1, func() (err error) { nl, err = netlist.ParseVerilog(vbuf.String(), cat); return err }); err != nil {
		return err
	}
	var store *query.Store
	if err := sp.around("query.build", 1, func() (err error) {
		store, err = query.Build(query.Source{Library: "sha256:bench", Stat: stat, Windows: set, Netlist: nl, STA: staCfg})
		return err
	}); err != nil {
		return err
	}
	docs := []string{firstQuery,
		`{"schema":"stdcelltune-query/1","from":"paths","order_by":[{"col":"slack_ns"}],"limit":10}`,
		`{"schema":"stdcelltune-query/1","from":"instances","join":{"table":"cells","left_col":"cell","right_col":"cell"},"group_by":["family"],"aggregate":[{"op":"sum","col":"area_um2"}]}`,
		`{"schema":"stdcelltune-query/1","from":"arcs","where":[{"col":"max_sigma_ns","op":"gt","value":0.01}],"aggregate":[{"op":"count"}]}`,
	}
	var qs []*query.Query
	end = sp.spanN("query.parse", len(docs))
	for _, d := range docs {
		q, err := query.Parse([]byte(d))
		if err != nil {
			end()
			return fmt.Errorf("parse %s: %w", d, err)
		}
		qs = append(qs, q)
	}
	end()
	for _, q := range qs {
		if err := sp.around("query.execute", 1, func() error { _, err := store.Execute(q); return err }); err != nil {
			return err
		}
	}
	pairs := substitutePairs(nl, cat, 2)
	for _, p := range pairs {
		if err := sp.around("query.substitute", 1, func() error { _, err := store.Substitute(p[0], p[1]); return err }); err != nil {
			return err
		}
	}
	if err := sp.around("query.widen", 1, func() error { _, err := store.Widen(1.2); return err }); err != nil {
		return err
	}
	if err := tracedFacade(ctx, cfg, sp); err != nil {
		return err
	}
	return tracedStores(e, libText, vbuf.Bytes(), sp)
}

// tracedFacade times the public stdcelltune facade's ctx-first
// pipeline, the calls a library user and the daemon make.
func tracedFacade(ctx context.Context, cfg exp.FlowConfig, sp *spans) error {
	cat := stdcelltune.NewCatalogue(cfg.Corner)
	var stat *stdcelltune.StatisticalLibrary
	if err := sp.around("facade.characterize", 1, func() (err error) {
		stat, err = stdcelltune.CharacterizeCtx(ctx, cat, stdcelltune.CharacterizeOptions{Instances: cfg.Samples, Seed: cfg.Seed})
		return err
	}); err != nil {
		return err
	}
	var win *stdcelltune.Windows
	if err := sp.around("facade.tune", 1, func() (err error) {
		win, _, err = stdcelltune.TuneCtx(ctx, stat, stdcelltune.TuneOptions{Method: stdcelltune.SigmaCeiling, Bound: 0.02})
		return err
	}); err != nil {
		return err
	}
	design, err := stdcelltune.NewMCUWith(cfg.MCU)
	if err != nil {
		return err
	}
	var res *stdcelltune.SynthesisResult
	if err := sp.around("facade.synthesize", 1, func() (err error) {
		res, err = stdcelltune.SynthesizeCtx(ctx, design, cat, stdcelltune.SynthesizeOptions{Clock: 5.0, Windows: win})
		return err
	}); err != nil {
		return err
	}
	return sp.around("facade.analyze_variation", 1, func() error {
		_, err := stdcelltune.AnalyzeVariationCtx(ctx, res, stat, stdcelltune.AnalyzeVariationOptions{})
		return err
	})
}

// incrementalSTA times one resize plus update on the incremental
// engine, for a sample of instances that have a larger sibling, and
// the update that resizes each back.
func incrementalSTA(src *netlist.Netlist, cfg sta.Config, sp *spans) error {
	nl := src.Clone()
	eng := sta.NewEngine(nl, cfg)
	defer eng.Close()
	if _, err := eng.Analyze(); err != nil {
		return err
	}
	done := 0
	for i := 0; i < len(nl.Instances) && done < 40; i += len(nl.Instances)/40 + 1 {
		inst := nl.Instances[i]
		from := inst.Spec
		to := largerSibling(nl.Cat, from)
		if to == nil {
			continue
		}
		for _, spec := range []*stdcell.Spec{to, from} {
			if err := nl.Resize(inst, spec); err != nil {
				return err
			}
			if err := sp.around("sta.incremental", 1, func() error { _, err := eng.Analyze(); return err }); err != nil {
				return err
			}
		}
		done++
	}
	if done == 0 {
		return fmt.Errorf("no resizable instance for the incremental STA probe")
	}
	return nil
}

func largerSibling(cat *stdcell.Catalogue, s *stdcell.Spec) *stdcell.Spec {
	var best *stdcell.Spec
	for _, o := range cat.Families[s.Family] {
		if o.Drive > s.Drive && (best == nil || o.Drive < best.Drive) {
			best = o
		}
	}
	return best
}

// substitutePairs picks the n most-used cells that have a larger
// sibling, each paired with that sibling.
func substitutePairs(nl *netlist.Netlist, cat *stdcell.Catalogue, n int) [][2]string {
	use := nl.CellUse()
	names := make([]string, 0, len(use))
	for name := range use {
		names = append(names, name)
	}
	sortByCount(names, use)
	var out [][2]string
	for _, name := range names {
		if to := largerSibling(cat, cat.Spec(name)); to != nil && len(out) < n {
			out = append(out, [2]string{name, to.Name})
		}
	}
	return out
}

// tracedStores times the artifact cache and the job journal in a
// scratch directory of the checkout.
func tracedStores(e env, libText string, verilog []byte, sp *spans) error {
	dir := filepath.Join(e.work, "stores")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := cache.New(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	blobs := map[string][]byte{"statlib.lib": []byte(libText), "netlist.v": verilog}
	var digs []string
	for i := 0; i < 3; i++ {
		dig := fmt.Sprintf("sha256:%064x", i+1)
		if err := sp.around("cache.put", 1, func() error { _, err := st.Put(dig, blobs); return err }); err != nil {
			return err
		}
		digs = append(digs, dig)
	}
	const lookups = 1000
	end := sp.spanN("cache.lookup", lookups)
	for i := 0; i < lookups; i++ {
		if _, ok := st.Lookup(digs[i%len(digs)]); !ok {
			end()
			return fmt.Errorf("cache lookup of a stored digest missed")
		}
	}
	end()
	j, _, err := journal.Open(filepath.Join(dir, "state"))
	if err != nil {
		return err
	}
	defer j.Close()
	spec := json.RawMessage(`{"design":"mcu-small"}`)
	for i := 0; i < 20; i++ {
		rec := journal.Record{Job: fmt.Sprintf("job-%d", i), State: journal.State("accepted"), Digest: digs[0], Spec: spec,
			Time: time.Now().UTC().Format(time.RFC3339Nano)}
		if err := sp.around("journal.append", 1, func() error { return j.Append(rec, true) }); err != nil {
			return err
		}
	}
	return nil
}

// tracedSession boots a daemon with the paper library, runs one
// session round untraced and one traced, reads the service's own phase
// spans from the cold job's trace and the cache counters around the
// traced round. It returns the traced round's overhead in percent.
func tracedSession(e env, in tracedInputs, sp *spans, m map[string]metric, c *checks) (*session, float64, error) {
	if err := cleanDaemonDirs(e); err != nil {
		return nil, 0, err
	}
	d, paper, _, err := bootPaper(e, filepath.Join(e.work, "stcd-traced"))
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		d.stop()
		_ = cleanDaemonDirs(e) // best effort: the next run cleans again before timing
	}()
	s, err := newSession(d, paper, c)
	if err != nil {
		return nil, 0, err
	}
	s.spec = in.spec
	t0 := time.Now()
	s.round(0)
	plain := time.Since(t0)
	before, err := d.counters("service_cache_hits", "service_cache_misses")
	if err != nil {
		return nil, 0, err
	}
	s.plannedHits, s.plannedMisses = 0, 0
	s.span = sp.span
	t0 = time.Now()
	s.round(1)
	traced := time.Since(t0)
	s.finish(before)
	after, err := d.counters("service_cache_hits", "service_cache_misses")
	if err != nil {
		return nil, 0, err
	}
	m["service.cache_hits"] = metric{after["service_cache_hits"] - before["service_cache_hits"], "count"}
	m["service.cache_misses"] = metric{after["service_cache_misses"] - before["service_cache_misses"], "count"}
	m["whatif.full_analyses"] = metric{float64(s.whatIfFull), "count"}
	m["whatif.incremental_updates"] = metric{float64(s.whatIfIncremental), "count"}
	for i := 0; i < 20; i++ {
		if err := sp.around("http.healthz", 1, func() error { _, _, err := d.get("/healthz"); return err }); err != nil {
			return nil, 0, err
		}
	}
	if s.lastCold == "" {
		return nil, 0, fmt.Errorf("traced session ran no cold job")
	}
	tr, _, err := d.get("/v2/jobs/" + s.lastCold + "/trace")
	if err != nil {
		return nil, 0, err
	}
	file := filepath.Join(e.work, "job-trace.json")
	if err := os.WriteFile(file, tr, 0o644); err != nil {
		return nil, 0, err
	}
	for _, phase := range []string{"characterize", "tune", "synthesize", "analyze-variation"} {
		ns, err := tracedur(e, file, phase)
		if err != nil {
			return nil, 0, err
		}
		m["service."+strings.ReplaceAll(phase, "-", "_")+"_ms"] = metric{ns / 1e6, "ms"}
	}
	return s, 100 * (float64(traced) - float64(plain)) / float64(plain), nil
}

func sortedCells(stat *statlib.Library) []string {
	names := make([]string, 0, len(stat.Cells))
	for n := range stat.Cells {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sortByCount orders cell names by descending use, then by name.
func sortByCount(names []string, use map[string]int) {
	sort.Slice(names, func(i, j int) bool {
		if use[names[i]] != use[names[j]] {
			return use[names[i]] > use[names[j]]
		}
		return names[i] < names[j]
	})
}
