// Command perfbench is the secmr benchmark. Each workload runs one
// protocol stack the two ways its users meet it: batch mining a static
// Quest database through the secmr facade until it converges, and a
// secmrd service under open-loop tenant load. It checks every run's
// outputs and prints one JSON result line last.
//
//	go run . --workload shamir --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 a separately assembled, traced run reports per-layer
// metrics instead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"secmr"
)

// workload pairs a batch-mining grid with a service deployment of the
// same protocol stack.
type workload struct {
	mine mineShape
	svc  secmr.GridConfig // the service's grid; Seed is set per run
}

// quickstart is the quickstart example's mining shape: the paper's k
// on 16 resources with Shamir shares.
var quickstart = secmr.GridConfig{Algorithm: secmr.AlgorithmSecure, Crypto: secmr.CryptoShamir,
	Resources: 16, K: 10, MinFreq: 0.08, MinConf: 0.65, MaxRuleItems: 3, ScanBudget: 100,
	CandidateEvery: 5}

// smoke is the CI service-smoke grid secmrd is exercised with.
var smoke = secmr.GridConfig{Algorithm: secmr.AlgorithmSecure, Crypto: secmr.CryptoShamir,
	Resources: 8, K: 4, MinFreq: 0.05, MinConf: 0.3, GrowthPerStep: 200}

var workloads = map[string]workload{
	"shamir": {
		mine: mineShape{grid: quickstart, txns: 8000, steps: 55},
		svc:  smoke,
	},
	"majority": {
		mine: mineShape{grid: withAlgorithm(quickstart, secmr.AlgorithmPlain, 300), txns: 15000, steps: 27,
			msgBudget: 1_500_000},
		svc: withAlgorithm(smoke, secmr.AlgorithmPlain, 8),
	},
}

func withAlgorithm(g secmr.GridConfig, a secmr.Algorithm, resources int) secmr.GridConfig {
	g.Algorithm, g.Resources = a, resources
	if a == secmr.AlgorithmPlain {
		g.Crypto = ""
	}
	return g
}

// instances is how many seeded grids one untraced run mines; the
// mining metrics pool them. setups is how many grids and how many
// services one run builds to time set-up.
const (
	instances = 2
	setups    = 5
	// qualityFloor is the least final recall and precision against
	// secmr.MineCentral a mining instance must reach. Secure grids
	// plateau below 1 on some seeds (README.md, "Final quality"), so
	// the floor catches broken mining, not the plateau.
	qualityFloor = 0.85
)

// subSeed derives the transaction sample of instance i from the run's
// seed.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// layoutSeed is instance i's grid seed (hashing partition, overlay,
// link delays). The layouts are part of the workload, the same for
// every run seed, so a seed changes the data mined but not the grids
// it is mined on; each run still spans several layouts.
func layoutSeed(i int) int64 { return int64(i + 1) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: shamir | majority")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "open-loop load duration of the service phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps and the service's store")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %s)\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{w: w, name: *name, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		out: *out, res: result{Correct: true, Metrics: map[string]metric{}}}
	steal0, total0 := cpuJiffies()
	var err error
	if *trace == 1 {
		err = b.traced()
	} else {
		err = b.untraced()
	}
	if err != nil {
		b.fail("%v", err)
	}
	// Time the hypervisor gave this machine's CPUs to others inflates
	// every timing; it is printed so a noisy run can be told apart.
	if steal1, total1 := cpuJiffies(); total1 > total0 {
		fmt.Printf("host: steal %.1f%% of CPU time during the run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	b.report()
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench accumulates one run's result.
type bench struct {
	w    workload
	name string
	seed int64
	dur  time.Duration
	out  string
	res  result
}

func (b *bench) set(name, unit string, v float64) { b.res.Metrics[name] = metric{Value: v, Unit: unit} }

func (b *bench) fail(format string, args ...any) {
	b.res.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// serve runs the service phase and folds its checks into the result.
func (b *bench) serve(traced bool) (*serviceRun, error) {
	workers := runtime.NumCPU()
	dir := filepath.Join(b.out, "svc-"+strconv.Itoa(os.Getpid()))
	sr, err := runService(b.w.svc, b.seed, b.dur, workers, setups, dir, traced)
	if err != nil {
		return nil, err
	}
	b.res.Attempted += sr.attempted
	b.res.Failed += sr.failed
	for _, p := range sr.problems {
		b.fail("service: %s", p)
	}
	fmt.Printf("service: %d requests (%d failed) over %d connections, %.2f steps/s, peak RSS so far %.0f MB\n",
		sr.attempted, sr.failed, workers, sr.stepsPerS, peakRSSMB())
	// Free the service's heap before the mining phase is measured.
	runtime.GC()
	debug.FreeOSMemory()
	return sr, nil
}

// checkInstance applies the mining output checks to one instance.
func (b *bench) checkInstance(i int, r mineRun) {
	b.res.Attempted++
	ok := true
	if r.q90Steps == 0 {
		b.fail("instance %d never reached recall and precision %.2f", i, q90)
		ok = false
	}
	if r.recall < qualityFloor || r.precision < qualityFloor {
		b.fail("instance %d: final recall %.4f / precision %.4f against MineCentral below %.2f", i, r.recall, r.precision, qualityFloor)
		ok = false
	}
	if !ok {
		b.res.Failed++
	}
	if r.runaway {
		fmt.Fprintf(os.Stderr, "perfbench: instance %d (data seed %d, layout seed %d) passed the message budget after %d steps: message storm\n",
			i, subSeed(b.seed, i), layoutSeed(i), len(r.steps))
	}
	fmt.Printf("mine %d: setup %.3fs, q90 at step %d after %.3fs of Grid.Step, %d steps in %.3fs (+%.3fs quality sampling), recall %.4f precision %.4f\n",
		i, r.setup.Seconds(), r.q90Steps, r.q90Time.Seconds(), len(r.steps), sum(r.steps).Seconds(), r.quality.Seconds(), r.recall, r.precision)
}

func (b *bench) untraced() error {
	sr, err := b.serve(false)
	if err != nil {
		return err
	}
	var runs []mineRun
	var mineSetup []float64
	for i := 0; i < instances; i++ {
		r, err := runFacade(b.w.mine, subSeed(b.seed, i), layoutSeed(i))
		if err != nil {
			return err
		}
		b.checkInstance(i, r)
		runs = append(runs, r)
		mineSetup = append(mineSetup, r.setup.Seconds())
	}
	for i := instances; i < setups; i++ {
		d, err := buildOnly(b.w.mine, subSeed(b.seed, i), layoutSeed(i))
		if err != nil {
			return err
		}
		mineSetup = append(mineSetup, d.Seconds())
	}

	// The layouts differ in cost per step, so the timing metrics pool
	// the grids: a median over grids of unequal cost would jump from one
	// grid to another between runs.
	var steps, q90Steps int
	var mined, q90Time time.Duration
	var recall, precision float64
	for _, r := range runs {
		steps += len(r.steps)
		mined += sum(r.steps)
		q90Steps += r.q90Steps
		q90Time += r.q90Time
		recall += r.recall
		precision += r.precision
	}
	b.set("setup_s", "s", median(mineSetup)+median(durationsS(sr.setups)))
	b.set("peak_rss_mb", "MB", peakRSSMB())
	b.set("steps_per_s", "1/s", float64(steps)/mined.Seconds())
	b.set("time_to_q90_s", "s", q90Time.Seconds()/instances)
	b.set("steps_to_q90", "steps", float64(q90Steps)/instances)
	b.set("final_recall", "frac", recall/instances)
	b.set("final_precision", "frac", precision/instances)
	b.set("ingest_p50_ms", "ms", ms(sr.p50(sr.ingest)))
	b.set("query_p50_ms", "ms", ms(sr.p50(sr.query)))
	b.tail("ingest", sr.ingest, 99, time.Millisecond, "ms")
	verdict := "meets"
	if percentile(durationsMS(durations(sr.ingest)), 99) > ms(ingestLimitP99) {
		verdict = "misses"
	}
	fmt.Printf("ingest: p99 %s the %v limit\n", verdict, ingestLimitP99)
	b.tail("query", sr.query, 90, time.Millisecond, "ms")
	b.tail("publish lag", sr.lags, 99, time.Second, "s")
	return nil
}

// tail prints a latency tail at the highest percentile with at least
// minBeyond samples beyond it, with the sample count behind it, and
// checks it reaches percentile p. Tails are too noisy between runs to
// gate on; the traced run reports them as loadgen.* metrics.
func (b *bench) tail(what string, xs []timed, p float64, unit time.Duration, name string) {
	got := tailPercentile(len(xs))
	if got < p {
		b.fail("%s: %d samples support p%g at most, not p%g", what, len(xs), got, p)
	}
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = float64(x.d) / float64(unit)
	}
	fmt.Printf("%s: p50 %.4g %s, p%g %.4g %s over %d samples\n",
		what, percentile(vals, 50), name, got, percentile(vals, got), name, len(xs))
}

func (b *bench) traced() error {
	sr, err := b.serve(true)
	if err != nil {
		return err
	}
	f, err := runFacade(b.w.mine, subSeed(b.seed, 0), layoutSeed(0))
	if err != nil {
		return err
	}
	b.checkInstance(0, f)
	runtime.GC()
	t, err := runTraced(b.w.mine, subSeed(b.seed, 0), layoutSeed(0), len(f.steps))
	if err != nil {
		return err
	}
	if err := parity(f, t); err != nil {
		b.fail("traced assembly: %v", err)
	}
	if err := t.rec.write(filepath.Join(b.out, "spans-"+b.name+".tsv")); err != nil {
		return err
	}
	b.mineLayers(f, t)
	b.serviceLayers(sr)
	return nil
}

// mineLayers reports the per-layer metrics of the mining phase.
func (b *bench) mineLayers(f mineRun, t *tracedRun) {
	stepMS := durationsMS(f.steps)
	b.set("secmr.step_ms_p50", "ms", percentile(stepMS, 50))
	b.set("secmr.step_ms_max", "ms", percentile(stepMS, 100))
	b.set("secmr.quality_s", "s", f.quality.Seconds())
	for _, s := range []string{"quest", "ground_truth", "topology", "partition", "resources"} {
		b.set("setup."+s+"_s", "s", t.setup[s].Seconds())
	}

	calls, self := t.rec.layerTotals()
	b.set("sim.self_s", "s", secs(self["sim.step"]))
	b.set("sim.sent", "count", float64(t.stats.EngineSent))
	b.set("sim.delivered", "count", float64(t.stats.EngineDelivered))
	b.set("sim.pending_max", "count", float64(t.pendingMax))
	for _, layer := range []string{"core", "majorityrule"} {
		for _, cb := range []string{"tick", "msg"} {
			b.set(layer+"."+cb+".calls", "count", float64(calls[layer+"."+cb]))
			b.set(layer+"."+cb+".self_s", "s", secs(self[layer+"."+cb]))
		}
	}
	core := t.stats
	if t.scheme == nil {
		core = secmr.GridStats{}
	}
	b.set("core.sfe", "count", float64(core.SFEs))
	b.set("core.fresh", "count", float64(core.Fresh))
	b.set("core.gated", "count", float64(core.Gated))
	b.set("core.fresh_per_sfe", "frac", ratioOrZero(core.Fresh, core.SFEs))
	b.set("core.bytes_sent", "bytes", float64(core.BytesSent))

	var opCalls, opElems [numOps]int64
	var homoNS int64
	for op, name := range opNames {
		st := t.rec.ops[op]
		opCalls[op] = st.calls
		homoNS += st.ns
		b.set("homo."+name+".calls", "count", float64(st.calls))
		b.set("homo."+name+".self_ns", "ns", float64(st.ns))
	}
	b.set("homo.self_s", "s", secs(homoNS))
	var mults, bytes int64
	if t.scheme != nil {
		opElems = t.scheme.elems
		mults, bytes = fieldCost(opCalls, opElems, t.k, t.n)
	}
	b.set("shamir.field_mults", "count", float64(mults))
	b.set("shamir.field_bytes", "bytes", float64(bytes))

	b.set("go.gc_cpu_frac", "frac", f.goStats.gcCPUFrac)
	b.set("go.alloc_objects_per_step", "count", f.goStats.allocsPerStep)
	b.set("go.alloc_bytes_per_step", "bytes", f.goStats.bytesPerStep)
	b.set("go.heap_peak_mb", "MB", f.goStats.heapPeakMB)
	untraced, traced := sum(f.steps), t.stepTotal
	b.set("trace.overhead_frac", "frac", 1-untraced.Seconds()/traced.Seconds())
	fmt.Printf("traced assembly: %d spans, step time %.3fs traced vs %.3fs through the facade\n",
		len(t.rec.spans), traced.Seconds(), untraced.Seconds())
}

// serviceLayers reports the per-layer metrics of the service phase.
func (b *bench) serviceLayers(sr *serviceRun) {
	h := sr.handler
	b.set("service.ingest.server_ms_p50", "ms", percentile(durationsMS(h.ingest), 50))
	b.set("service.ingest.server_ms_p99", "ms", percentile(durationsMS(h.ingest), 99))
	b.set("service.rules.server_ms_p50", "ms", percentile(durationsMS(h.rules), 50))
	b.set("service.rules.server_ms_p90", "ms", percentile(durationsMS(h.rules), 90))
	var s4xx, s5xx int
	for code, n := range h.status {
		switch {
		case code >= 500:
			s5xx += n
		case code >= 400 && code != 429:
			s4xx += n
		}
	}
	b.set("service.status.202", "count", float64(h.status[202]))
	b.set("service.status.429", "count", float64(h.status[429]))
	b.set("service.status.4xx", "count", float64(s4xx))
	b.set("service.status.5xx", "count", float64(s5xx))
	b.set("service.queue_max", "count", float64(sr.queueMax))
	b.set("service.inflight_bytes_max", "bytes", sr.inflightMax)
	b.set("service.crypto_ops", "count", sr.scraped["secmr_crypto_ops_total"])
	b.set("service.vote_decisions", "count", sr.scraped["secmr_vote_decisions_total"])
	b.set("service.steps_per_s", "1/s", sr.stepsPerS)
	b.set("service.go.gc_cpu_frac", "frac", sr.goStats.gcCPUFrac)
	b.set("service.go.alloc_bytes_per_step", "bytes", sr.goStats.bytesPerStep)

	st := sr.store
	b.set("store.put.calls", "count", float64(len(st.puts)))
	b.set("store.put.errors", "count", float64(st.putErrs))
	b.set("store.put_ms_p50", "ms", percentile(durationsMS(st.putLat), 50))
	b.set("store.put_ms_p95", "ms", percentile(durationsMS(st.putLat), 95))
	b.set("store.query_ms_p50", "ms", percentile(durationsMS(st.queryLat), 50))
	b.set("store.query_ms_p90", "ms", percentile(durationsMS(st.queryLat), 90))

	b.set("loadgen.late_p99_ms", "ms", percentile(durationsMS(sr.late), 99))
	b.set("loadgen.ingest_p99_ms", "ms", percentile(durationsMS(durations(sr.ingest)), 99))
	b.set("loadgen.query_p90_ms", "ms", percentile(durationsMS(durations(sr.query)), 90))
	b.set("loadgen.publish_lag_p50_s", "s", sr.p50(sr.lags).Seconds())
	b.set("loadgen.publish_lag_p99_s", "s", percentile(durationsS(durations(sr.lags)), 99))
	b.set("loadgen.sent", "count", float64(sr.attempted))
}

// report prints every metric, then the JSON result as the last line.
// A run whose output checks failed still reports, with correct set
// to false, and exits non-zero.
func (b *bench) report() {
	names := make([]string, 0, len(b.res.Metrics))
	for n := range b.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.res.Metrics[n]
		fmt.Printf("  %-34s %14.6g %s\n", n, m.Value, m.Unit)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail("metric %s is %v", n, m.Value)
			b.res.Metrics[n] = metric{Unit: m.Unit}
		}
	}
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !b.res.Correct {
		os.Exit(1)
	}
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratioOrZero(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cpuJiffies returns the machine's steal and total CPU time from
// /proc/stat, or zeros where it is unavailable.
func cpuJiffies() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseInt(s, 10, 64)
		// guest and guest_nice (fields 9 and 10) are already in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's peak resident set (VmHWM), or the Go
// runtime's total mapped memory where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
