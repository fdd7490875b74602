package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"time"

	"stdcelltune/internal/core"
	"stdcelltune/internal/exp"
	"stdcelltune/internal/stdcell"
	"stdcelltune/internal/variation"
)

// renderable is what every experiment function returns.
type renderable interface{ Render() string }

// experiment is one of the paper's 25 experiment functions, in the order
// cmd/experiments runs them against one shared Flow.
type experiment struct {
	name string
	run  func(f *exp.Flow) (renderable, error)
}

func fig9(f *exp.Flow, low bool) (renderable, error) {
	clocks, err := f.Clocks()
	if err != nil {
		return nil, err
	}
	if low {
		return f.Fig9(clocks.Low)
	}
	return f.Fig9(clocks.HighPerf)
}

var experiments = []experiment{
	{"fig1", func(f *exp.Flow) (renderable, error) { return f.Fig1(), nil }},
	{"fig2", func(f *exp.Flow) (renderable, error) { return f.Fig2() }},
	{"fig3", func(f *exp.Flow) (renderable, error) { return f.Fig3() }},
	{"fig4", func(f *exp.Flow) (renderable, error) { return f.Fig4() }},
	{"fig5", func(f *exp.Flow) (renderable, error) { return f.Fig5() }},
	{"fig6", func(f *exp.Flow) (renderable, error) { return f.Fig6() }},
	{"fig7", func(f *exp.Flow) (renderable, error) { return f.Fig7() }},
	{"table1", func(f *exp.Flow) (renderable, error) { return f.Table1() }},
	{"table2", func(f *exp.Flow) (renderable, error) { return f.Table2(), nil }},
	{"fig8", func(f *exp.Flow) (renderable, error) { return f.Fig8() }},
	{"table3", func(f *exp.Flow) (renderable, error) { return f.Table3() }},
	{"fig10", func(f *exp.Flow) (renderable, error) { return f.Fig10() }},
	{"fig11", func(f *exp.Flow) (renderable, error) { return f.Fig11() }},
	{"fig9_highperf", func(f *exp.Flow) (renderable, error) { return fig9(f, false) }},
	{"fig9_low", func(f *exp.Flow) (renderable, error) { return fig9(f, true) }},
	{"fig12", func(f *exp.Flow) (renderable, error) { return f.Fig12() }},
	{"fig13", func(f *exp.Flow) (renderable, error) { return f.Fig13() }},
	{"fig14", func(f *exp.Flow) (renderable, error) { return f.Fig14() }},
	{"fig15", func(f *exp.Flow) (renderable, error) { return f.Fig15() }},
	{"fig16", func(f *exp.Flow) (renderable, error) { return f.Fig16() }},
	{"ext_pnr", func(f *exp.Flow) (renderable, error) { return f.ExtPNR() }},
	{"ext_power", func(f *exp.Flow) (renderable, error) { return f.ExtPower() }},
	{"ext_yield", func(f *exp.Flow) (renderable, error) { return f.ExtYield() }},
	{"ext_corners", func(f *exp.Flow) (renderable, error) { return f.ExtCorners() }},
	{"ext_workloads", func(f *exp.Flow) (renderable, error) { return f.ExtWorkloads() }},
}

// batteryConfig is the battery's input for one round: the scaled-down
// flow (the mcu-small design, 15 Monte-Carlo instances) reseeded from
// the workload seed. Round 0 of seed 1 is the zero-flag
// `experiments -small` run; later rounds take other seeds, because the
// battery's cost depends on the seed and a run's median should not
// rest on one.
func batteryConfig(seed int64, round int) exp.FlowConfig {
	cfg := exp.SmallFlowConfig()
	cfg.Seed = seed + 1000*int64(round)
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// battery is one pass of all 25 experiments over a flow.
type battery struct {
	results map[string]renderable
	texts   []string // rendered text in experiment order
	wall    time.Duration
	failed  error
}

// runExperiments runs the 25 experiments in order on f; span, when
// set, wraps each call (the traced run).
func runExperiments(f *exp.Flow, span func(string) func()) *battery {
	b := &battery{results: make(map[string]renderable)}
	start := time.Now()
	for _, e := range experiments {
		end := func() {}
		if span != nil {
			end = span("exp." + e.name)
		}
		r, err := e.run(f)
		end()
		if err != nil {
			b.failed = errors.Join(b.failed, fmt.Errorf("%s: %w", e.name, err))
			continue
		}
		b.results[e.name] = r
		b.texts = append(b.texts, "--- "+e.name+" ---\n"+r.Render())
	}
	b.wall = time.Since(start)
	return b
}

// digest is the SHA-256 of every rendered text in order: two runs with
// the same seed must print the same digest.
func (b *battery) digest() string {
	h := sha256.New()
	for _, t := range b.texts {
		h.Write([]byte(t))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkBattery runs every battery output check against one flow and
// its first pass.
func checkBattery(ctx context.Context, f *exp.Flow, b *battery, c *checks) {
	c.add(checkFinite(b.texts))
	if t3, ok := b.results["table3"].(*exp.Table3Result); ok {
		c.add(checkTable3(t3))
	} else {
		c.add(errors.New("battery: table3 result missing"))
	}
	clocks, err := f.Clocks()
	if err != nil {
		c.add(fmt.Errorf("battery: clocks: %w", err))
		return
	}
	_, base, err := f.BaselineStats(clocks.HighPerf)
	if err != nil {
		c.add(fmt.Errorf("battery: baseline stats: %w", err))
		return
	}
	_, tuned, err := f.TunedStats(core.SigmaCeiling, 0.02, clocks.HighPerf)
	if err != nil {
		c.add(fmt.Errorf("battery: tuned stats: %w", err))
		return
	}
	c.add(checkHeadline(base, tuned))
	c.add(checkDesignStats(base, f.Stat))
	c.add(checkDesignStats(tuned, f.Stat))
	// The fold check needs the Monte-Carlo instances the flow folded
	// and then dropped; they are a pure function of the config.
	libs, err := variation.InstancesCtx(ctx, stdcell.NewCatalogue(f.Cfg.Corner),
		variation.Config{N: f.Cfg.Samples, Seed: f.Cfg.Seed, CharNoise: 0.02})
	if err != nil {
		c.add(fmt.Errorf("battery: regenerate instances: %w", err))
		return
	}
	c.add(checkFold(f.Stat, libs))
}

// runBattery is the battery workload: rounds of (build the round's
// flow, run the 25 experiments on it, run them again on the now-warm
// flow) until the run's time is up.
func runBattery(ctx context.Context, e env) (*result, error) {
	fmt.Printf("battery: experiments -small flows, seeds %d+1000*round, %d MC instances\n",
		e.seed, exp.SmallFlowConfig().Samples)
	setup := &class{name: "flow_build"}
	cold := &class{name: "battery_cold"}
	warm := &class{name: "battery_warm"}
	var c checks
	rss := 0.0
	start := time.Now()
	for round := 0; round < rssRounds || time.Since(start) < e.seconds; round++ {
		cfg := batteryConfig(e.seed, round)
		// Each round builds its flow twice, so set-up has two samples
		// per round. Garbage from earlier work is collected outside the
		// timed spans, so each span pays only for its own allocations.
		var f *exp.Flow
		var err error
		for i := 0; i < 2 && err == nil; i++ {
			runtime.GC()
			t0 := time.Now()
			if f, err = exp.NewFlow(ctx, cfg); err == nil {
				setup.ok(time.Since(t0).Seconds())
			}
		}
		if err != nil {
			setup.fail()
			cold.fail()
			warm.fail()
			fmt.Println("battery: flow build failed:", err)
			continue
		}
		runtime.GC()
		first := runExperiments(f, nil)
		if first.failed != nil {
			cold.fail()
			fmt.Println("battery: cold pass failed:", first.failed)
		} else {
			cold.ok(float64(first.wall) / float64(time.Millisecond))
		}
		runtime.GC()
		again := runExperiments(f, nil)
		if again.failed != nil {
			warm.fail()
			fmt.Println("battery: warm pass failed:", again.failed)
		} else {
			warm.ok(float64(again.wall) / float64(time.Millisecond))
		}
		if round == rssRounds-1 {
			// Peak RSS after a fixed number of rounds, so it does not
			// grow with how many rounds a fast machine fits in.
			if rss, err = vmHWM("self"); err != nil {
				return nil, err
			}
		}
		if first.failed != nil || again.failed != nil {
			continue
		}
		if first.digest() != again.digest() {
			c.add(fmt.Errorf("battery: round %d: warm pass rendered different text than the cold pass", round))
		}
		if round == 0 {
			fmt.Printf("battery: output digest sha256:%s\n", first.digest())
			checkBattery(ctx, f, first, &c)
		}
	}
	for _, cl := range []*class{setup, cold, warm} {
		unit := "ms"
		if cl == setup {
			unit = "s"
		}
		cl.report(unit)
	}
	return &result{
		Correct:   c.ok(),
		Attempted: setup.attempted + cold.attempted + warm.attempted,
		Failed:    setup.failed + cold.failed + warm.failed,
		Metrics: map[string]metric{
			"setup_s":     {setup.median(), "s"},
			"peak_rss_mb": {rss, "MB"},
			"cold_ms":     {cold.median(), "ms"},
		},
	}, nil
}

// rssRounds is the round after which the battery reads its peak RSS,
// and the least number of rounds a run makes.
const rssRounds = 3
