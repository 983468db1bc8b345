package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"secmr"
	"secmr/internal/arm"
	"secmr/internal/core"
	"secmr/internal/hashing"
	"secmr/internal/homo"
	"secmr/internal/majorityrule"
	"secmr/internal/shamir"
	"secmr/internal/sim"
	"secmr/internal/topology"
)

// mineShape is one batch-mining grid: a static Quest database mined
// through the facade for a fixed number of steps, through convergence
// and into the steady state.
type mineShape struct {
	grid  secmr.GridConfig // Seed is set per instance
	txns  int
	steps int
	// msgBudget, when positive, stops an instance whose engine has sent
	// more messages than this: a runaway message storm would otherwise
	// take minutes and gigabytes (see README.md, "Message storms").
	msgBudget int64
}

// questMarket is the quickstart's Quest shape with its pattern table
// fixed: every seed draws its transactions from the same market, so a
// seed changes which baskets are mined and how the grid is laid out,
// not which rules exist.
var questMarket = secmr.QuestParams{NumItems: 60, NumPatterns: 25, AvgTransLen: 5,
	AvgPatternLen: 2, Seed: 42}

// makeDB draws txns transactions from a pool of twice that many
// generated from questMarket, chosen by seed.
func makeDB(txns int, seed int64) *secmr.Database {
	p := questMarket
	p.NumTransactions = 2 * txns
	pool := secmr.GenerateQuestWith(p)
	db := &secmr.Database{Tx: make([]secmr.Transaction, 0, txns)}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(2 * txns)[:txns] {
		db.Append(pool.Tx[i])
	}
	return db
}

// q90 is the quality both recall and precision must reach for the
// time_to_q90_s and steps_to_q90 metrics.
const q90 = 0.9

// mineRun is the outcome of one facade instance.
type mineRun struct {
	setup     time.Duration
	steps     []time.Duration // Grid.Step(1) durations
	quality   time.Duration   // time in quality sampling
	q90Steps  int             // 0 when never reached
	q90Time   time.Duration   // Grid.Step time until q90Steps
	runaway   bool            // stopped early by the message budget
	recall    float64         // final, against secmr.MineCentral
	precision float64
	outputs   []secmr.RuleSet
	stats     secmr.GridStats
	goStats   goDelta
}

// runFacade builds one grid through the secmr facade — transactions
// drawn by dataSeed, laid out by layoutSeed — and steps it, sampling
// quality after every step until q90 is reached. Only Grid.Step calls
// count as mining time. Sampling reads every resource's output, which
// on wide grids costs about as much as a step, so it stops once it has
// served its purpose; a coarser cadence would round the q90 step up to
// the next sample and make it jump between seeds.
func runFacade(shape mineShape, dataSeed, layoutSeed int64) (mineRun, error) {
	var run mineRun
	db, g, setup, err := buildGrid(shape, dataSeed, layoutSeed)
	if err != nil {
		return run, err
	}
	run.setup = setup
	defer g.Close()
	cfg := shape.grid

	gs := startGoSample()
	var mined time.Duration
	for s := 1; s <= shape.steps; s++ {
		a := time.Now()
		g.Step(1)
		d := time.Since(a)
		run.steps = append(run.steps, d)
		mined += d
		gs.sampleHeap()
		if shape.msgBudget > 0 && g.Stats().EngineSent > shape.msgBudget {
			run.runaway = true
			break
		}
		if run.q90Steps > 0 {
			continue
		}
		b := time.Now()
		r, p := g.Quality()
		run.quality += time.Since(b)
		if r >= q90 && p >= q90 {
			run.q90Steps, run.q90Time = s, mined
		}
	}
	run.goStats = gs.finish(len(run.steps))
	for i := 0; i < g.Resources(); i++ {
		run.outputs = append(run.outputs, g.Output(i))
	}
	run.stats = g.Stats()
	run.recall, run.precision = centralQuality(db, cfg, run.outputs)
	return run, nil
}

// buildGrid times the set-up of one instance: Quest generation and
// secmr.NewGrid (ground truth, partition, overlay, resources). It
// collects garbage first so earlier instances do not bill it.
func buildGrid(shape mineShape, dataSeed, layoutSeed int64) (*secmr.Database, *secmr.Grid, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	db := makeDB(shape.txns, dataSeed)
	cfg := shape.grid
	cfg.Seed = layoutSeed
	g, err := secmr.NewGrid(db, cfg)
	return db, g, time.Since(t0), err
}

// buildOnly times the set-up of one instance without mining it.
func buildOnly(shape mineShape, dataSeed, layoutSeed int64) (time.Duration, error) {
	_, g, d, err := buildGrid(shape, dataSeed, layoutSeed)
	if err != nil {
		return 0, err
	}
	g.Close()
	return d, nil
}

// centralQuality averages each resource's recall and precision
// against secmr.MineCentral over the whole database, restricted to the
// rule size the grid mines (MaxRuleItems).
func centralQuality(db *secmr.Database, cfg secmr.GridConfig, outputs []secmr.RuleSet) (recall, precision float64) {
	truth := secmr.RuleSet{}
	for k, r := range secmr.MineCentral(db, secmr.Thresholds{MinFreq: cfg.MinFreq, MinConf: cfg.MinConf}) {
		if cfg.MaxRuleItems == 0 || len(r.Union()) <= cfg.MaxRuleItems {
			truth[k] = r
		}
	}
	for _, out := range outputs {
		hit := 0
		for k := range out {
			if _, ok := truth[k]; ok {
				hit++
			}
		}
		recall += ratio(hit, len(truth))
		precision += ratio(hit, len(out))
	}
	n := float64(len(outputs))
	return recall / n, precision / n
}

// ratio is a/b, with an empty denominator counting as perfect.
func ratio(a, b int) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// tracedRun is the outcome of the traced assembly of one instance.
type tracedRun struct {
	setup      map[string]time.Duration
	rec        *recorder
	scheme     *tracedScheme // nil for plain Majority-Rule
	k, n       int64         // Shamir threshold and committee
	stepTotal  time.Duration // summed sim.step span time
	pendingMax int
	outputs    []secmr.RuleSet
	stats      secmr.GridStats
}

// runTraced assembles the same grid the facade builds for shape and
// seeds — same packages, same random draw order — with every resource
// and the scheme wrapped so calls into each layer are recorded, then
// steps it the given number of times.
func runTraced(shape mineShape, dataSeed, layoutSeed int64, steps int) (*tracedRun, error) {
	cfg := shape.grid
	tr := &tracedRun{setup: map[string]time.Duration{}, rec: newRecorder(numOps)}
	lap := func(name string, t0 time.Time) { tr.setup[name] = time.Since(t0) }

	t0 := time.Now()
	db := makeDB(shape.txns, dataSeed)
	lap("quest", t0)

	t0 = time.Now()
	th := arm.Thresholds{MinFreq: cfg.MinFreq, MinConf: cfg.MinConf}
	universe := db.Items()
	_ = arm.GroundTruth(db, th, universe, cfg.MaxRuleItems)
	lap("ground_truth", t0)

	rng := rand.New(rand.NewSource(layoutSeed))
	t0 = time.Now()
	parts := hashing.Partition(db, cfg.Resources, rng)
	lap("partition", t0)

	t0 = time.Now()
	tree := topology.BarabasiAlbert(cfg.Resources, 2, topology.DelayRange{Min: 1, Max: 3}, rng).SpanningTree(0)
	lap("topology", t0)

	t0 = time.Now()
	nodes := make([]sim.Node, cfg.Resources)
	var resources []*core.Resource
	var plain []*majorityrule.Resource
	switch cfg.Algorithm {
	case secmr.AlgorithmSecure:
		if cfg.Crypto != secmr.CryptoShamir {
			return nil, fmt.Errorf("perfbench: traced assembly supports the shamir backend only")
		}
		tr.k, tr.n = int64(cfg.K), int64(cfg.K+min(4, cfg.Resources-cfg.K))
		raw, err := shamir.New(shamir.Params{K: int(tr.k), N: int(tr.n), W: 1})
		if err != nil {
			return nil, err
		}
		if tr.scheme, err = wrapScheme(raw, tr.rec); err != nil {
			return nil, err
		}
		c := core.Config{Th: th, Universe: universe, ScanBudget: cfg.ScanBudget,
			CandidateEvery: cfg.CandidateEvery, K: int64(cfg.K), MaxRuleItems: cfg.MaxRuleItems,
			IntraDelay: true}
		for i := range nodes {
			r := core.NewResourceFeed(i, c, homo.Scheme(tr.scheme), parts[i], nil, nil)
			resources = append(resources, r)
			w, err := wrapNode(r, "core", tr.rec)
			if err != nil {
				return nil, err
			}
			nodes[i] = w
		}
	case secmr.AlgorithmPlain:
		c := majorityrule.Config{Th: th, Universe: universe, ScanBudget: cfg.ScanBudget,
			CandidateEvery: cfg.CandidateEvery, K: int64(cfg.K), Mode: majorityrule.ModePlain,
			MaxRuleItems: cfg.MaxRuleItems}
		for i := range nodes {
			r := majorityrule.NewResourceFeed(i, c, parts[i], nil)
			plain = append(plain, r)
			w, err := wrapNode(r, "majorityrule", tr.rec)
			if err != nil {
				return nil, err
			}
			nodes[i] = w
		}
	default:
		return nil, fmt.Errorf("perfbench: no traced assembly for algorithm %q", cfg.Algorithm)
	}
	engine := sim.NewEngine(tree, nodes, layoutSeed)
	lap("resources", t0)

	simStep := tr.rec.id("sim.step")
	for s := 0; s < steps; s++ {
		i := tr.rec.begin(simStep)
		engine.Step()
		tr.rec.end(i)
		sp := tr.rec.spans[i]
		tr.stepTotal += time.Duration(sp.end - sp.start)
		tr.pendingMax = max(tr.pendingMax, engine.Pending())
	}

	for _, n := range nodes {
		tr.outputs = append(tr.outputs, n.(miner).Output())
	}
	es := engine.Stats()
	tr.stats.EngineSent, tr.stats.EngineDelivered = es.Sent, es.Delivered
	for _, r := range resources {
		bs, cs := r.Stats(), r.Controller.Stats()
		tr.stats.MessagesSent += bs.MessagesSent
		tr.stats.BytesSent += bs.BytesSent
		tr.stats.SFEs += cs.SFEs
		tr.stats.Fresh += cs.FreshDecisions
		tr.stats.Gated += cs.GatedDecisions
	}
	for _, r := range plain {
		st := r.Stats()
		tr.stats.MessagesSent += st.MessagesSent
		tr.stats.Fresh += st.FreshDecisions
		tr.stats.Gated += st.GatedDecisions
	}
	return tr, nil
}

// parity reports how the traced assembly differs from the facade run
// of the same instance: per-resource rule sets and protocol counters
// must match exactly, or the traced run measured a different program.
func parity(f mineRun, t *tracedRun) error {
	if f.stats != t.stats {
		return fmt.Errorf("traced counters %+v differ from facade counters %+v", t.stats, f.stats)
	}
	if len(f.outputs) != len(t.outputs) {
		return fmt.Errorf("traced grid has %d resources, facade %d", len(t.outputs), len(f.outputs))
	}
	for i := range f.outputs {
		if len(f.outputs[i]) != len(t.outputs[i]) {
			return fmt.Errorf("resource %d: traced output has %d rules, facade %d", i, len(t.outputs[i]), len(f.outputs[i]))
		}
		for k := range f.outputs[i] {
			if _, ok := t.outputs[i][k]; !ok {
				return fmt.Errorf("resource %d: rule %s missing from the traced output", i, k)
			}
		}
	}
	return nil
}

// goDelta is the Go runtime's cost over a stretch of steps.
type goDelta struct {
	gcCPUFrac     float64
	allocsPerStep float64
	bytesPerStep  float64
	heapPeakMB    float64
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
}

// goSample reads runtime/metrics at the start of a stretch and tracks
// the live-heap peak across it.
type goSample struct {
	start    []metrics.Sample
	heapPeak uint64
}

func readGo() []metrics.Sample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startGoSample() *goSample {
	runtime.GC()
	return &goSample{start: readGo()}
}

func (g *goSample) sampleHeap() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	g.heapPeak = max(g.heapPeak, s[0].Value.Uint64())
}

// finish reads the metrics again; the CPU-class estimates are as of
// the last GC cycle, which allocation-heavy stepping keeps recent.
func (g *goSample) finish(steps int) goDelta {
	end := readGo()
	f := func(i int) float64 {
		if end[i].Value.Kind() == metrics.KindFloat64 {
			return end[i].Value.Float64() - g.start[i].Value.Float64()
		}
		return float64(end[i].Value.Uint64() - g.start[i].Value.Uint64())
	}
	d := goDelta{heapPeakMB: float64(g.heapPeak) / (1 << 20)}
	if total := f(1); total > 0 {
		d.gcCPUFrac = f(0) / total
	}
	if steps > 0 {
		d.allocsPerStep = f(2) / float64(steps)
		d.bytesPerStep = f(3) / float64(steps)
	}
	return d
}
