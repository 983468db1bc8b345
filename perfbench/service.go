package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"secmr"
	"secmr/internal/arm"
	"secmr/internal/quest"
	"secmr/internal/service"
	"secmr/internal/store"
)

// The secmrd deployment and its open-loop tenant load, the same on
// every workload (only the grid differs): a service bootstrapped with
// seedTxns transactions that publishes every publishEvery steps and
// admits tenantRate transactions/s per tenant, sent ingestRate batches/s
// of batchTxns transactions over numTenants tenants, plus one rules poll
// per queryEvery ingests.
const (
	seedTxns     = 1000
	publishEvery = 2
	tenantRate   = 300
	ingestRate   = 60
	batchTxns    = 16
	numTenants   = 16
	queryEvery   = 10
)

// The open-loop client's limits: a request that takes longer than
// reqTimeout has failed, and the run is invalid if the generator
// itself falls more than maxLateP99 behind its schedule at p99.
// ingestLimitP99 is the service's latency limit on ingest at p99; a
// run reports whether the load met it.
const (
	reqTimeout     = 5 * time.Second
	ingestLimitP99 = 50 * time.Millisecond
	maxLateP99     = 100 * time.Millisecond
	drainLimit     = 20 * time.Second
)

// serviceRun is the outcome of one service phase.
type serviceRun struct {
	setups    []time.Duration
	start     time.Time     // when the first request was due
	span      time.Duration // how long the load ran
	stepsPerS float64       // median over windows of the load
	ingest    []timed       // latency from due time, at the due time
	query     []timed
	lags      []timed // publish lag, at the ack
	late      []time.Duration
	attempted int
	failed    int
	problems  []string // failed output checks

	status      map[int]int // client-side response codes (0 = transport error)
	queueMax    int
	inflightMax float64
	handler     *tracedHandler // nil unless traced
	store       *recordingStore
	scraped     map[string]float64
	goStats     goDelta
}

// p50 is the median over the load's windows of each window's p50.
func (run *serviceRun) p50(xs []timed) time.Duration {
	return windowedPercentile(xs, run.start, run.span, windows, 50)
}

// recordingStore is the benchmark's store.Store wrapper: it notes
// every Put with the service's step count read inside the call, and
// the latency of every Put and Query.
type recordingStore struct {
	inner store.Store
	svc   atomic.Pointer[service.Service]

	mu       sync.Mutex
	puts     []putEvent
	putLat   []time.Duration
	queryLat []time.Duration
	putErrs  int
}

func (s *recordingStore) Put(tenant string, epoch int64, rules []store.Rule) error {
	t0 := time.Now()
	err := s.inner.Put(tenant, epoch, rules)
	done := time.Now()
	var step int64
	if svc := s.svc.Load(); svc != nil {
		step = svc.Steps()
	}
	s.mu.Lock()
	s.puts = append(s.puts, putEvent{tenant: tenant, at: done, step: step})
	s.putLat = append(s.putLat, done.Sub(t0))
	if err != nil {
		s.putErrs++
	}
	s.mu.Unlock()
	return err
}

func (s *recordingStore) Query(tenant string, q store.Query) (store.Result, error) {
	t0 := time.Now()
	res, err := s.inner.Query(tenant, q)
	d := time.Since(t0)
	s.mu.Lock()
	s.queryLat = append(s.queryLat, d)
	s.mu.Unlock()
	return res, err
}

func (s *recordingStore) Tenants() []string { return s.inner.Tenants() }
func (s *recordingStore) Close() error      { return s.inner.Close() }

func (s *recordingStore) putEvents() []putEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]putEvent(nil), s.puts...)
}

// tracedHandler times the service's handler per route and counts
// response codes, from inside the server.
type tracedHandler struct {
	inner http.Handler

	mu     sync.Mutex
	ingest []time.Duration
	rules  []time.Duration
	status map[int]int
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	t0 := time.Now()
	h.inner.ServeHTTP(sw, r)
	d := time.Since(t0)
	h.mu.Lock()
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/txns"):
		h.ingest = append(h.ingest, d)
	case strings.HasSuffix(r.URL.Path, "/rules"):
		h.rules = append(h.rules, d)
	}
	h.status[sw.code]++
	h.mu.Unlock()
}

// The service's Quest market is the one CI's secmrd bootstraps from
// (T5I2 over 60 items, pattern seed 2), and its grid seed is CI's too.
// A run's seed draws the bootstrap database and the ingest stream from
// that market; the grid layout stays the same.
const (
	serviceMarketSeed = 2
	serviceGridSeed   = 1
)

// sample returns n of pool's transactions, chosen by seed.
func sample(pool []arm.Transaction, n int, seed int64) []arm.Transaction {
	out := make([]arm.Transaction, 0, n)
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(pool))[:n] {
		out = append(out, pool[i])
	}
	return out
}

// bootService builds a service the way secmrd does with a durable
// store in dir, bootstrapped with transactions the seed draws from a
// pool twice the bootstrap size. It returns the market's generator,
// positioned after the pool, for the ingest stream.
func bootService(grid secmr.GridConfig, seed int64, dir string) (*service.Service, *recordingStore, *quest.Generator, error) {
	sink := secmr.NewTelemetry()
	fs, err := store.Open(dir, store.Options{Obs: sink})
	if err != nil {
		return nil, nil, nil, err
	}
	params, err := quest.Preset("T5I2", seedTxns, serviceMarketSeed)
	if err != nil {
		fs.Close()
		return nil, nil, nil, err
	}
	params.NumItems = 60
	gen := quest.NewGenerator(params)
	boot := &arm.Database{Tx: sample(gen.Generate(2*seedTxns).Tx, seedTxns, seed)}
	rs := &recordingStore{inner: fs}
	cfg := service.Config{Grid: grid, Seed: boot, Store: rs,
		PublishEvery: publishEvery, TenantRate: tenantRate, Obs: sink}
	cfg.Grid.Seed = serviceGridSeed
	svc, err := service.New(cfg)
	if err != nil {
		fs.Close()
		return nil, nil, nil, err
	}
	rs.svc.Store(svc)
	return svc, rs, gen, nil
}

// ingestBody is the JSON body of one ingest batch.
func ingestBody(batch []arm.Transaction) []byte {
	txns := make([][]int, len(batch))
	for i, tx := range batch {
		for _, it := range tx {
			txns[i] = append(txns[i], int(it))
		}
	}
	b, _ := json.Marshal(map[string]any{"txns": txns})
	return b
}

// stepRate is the mining rate the store saw inside [from, to]: steps
// gained between the first and the last Put in the window, over the
// time between them. Puts land on step boundaries, so this is not
// rounded to whole steps the way a step count over the window is.
func stepRate(puts []putEvent, from, to time.Time) (float64, bool) {
	var first, last *putEvent
	for i := range puts {
		p := &puts[i]
		if p.at.Before(from) || p.at.After(to) {
			continue
		}
		if first == nil || p.at.Before(first.at) {
			first = p
		}
		if last == nil || p.at.After(last.at) {
			last = p
		}
	}
	if first == nil || last.step == first.step {
		return 0, false
	}
	return float64(last.step-first.step) / last.at.Sub(first.at).Seconds(), true
}

// runService stands the service up (setups times, keeping the last),
// serves it on loopback, and drives it open-loop for the given
// duration from workers concurrent connections.
func runService(grid secmr.GridConfig, seed int64, dur time.Duration, workers, setups int, dir string, traced bool) (*serviceRun, error) {
	run := &serviceRun{status: map[int]int{}}
	var (
		svc *service.Service
		rs  *recordingStore
		gen *quest.Generator
	)
	for i := 0; i < setups; i++ {
		sdir := filepath.Join(dir, "store-"+strconv.Itoa(i))
		runtime.GC()
		t0 := time.Now()
		s, r, g, err := bootService(grid, seed, sdir)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, time.Since(t0))
		if i < setups-1 {
			s.Close()
			os.RemoveAll(sdir)
			continue
		}
		svc, rs, gen = s, r, g
	}
	run.store = rs

	ingests := int(ingestRate * dur.Seconds())
	queries := ingests / queryEvery
	stream := sample(gen.Generate(2*ingests*batchTxns).Tx, ingests*batchTxns, seed+1)
	bodies := make([][]byte, ingests)
	for i := range bodies {
		bodies[i] = ingestBody(stream[i*batchTxns : (i+1)*batchTxns])
	}
	tenants := make([]string, numTenants)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("t%02d", i)
	}

	var handler http.Handler = svc.Handler()
	if traced {
		run.handler = &tracedHandler{inner: handler, status: map[int]int{}}
		handler = run.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	base := "http://" + ln.Addr().String() + "/v1/tenants/"
	transport := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	client := &http.Client{Timeout: reqTimeout, Transport: transport}

	var (
		mu       sync.Mutex
		acks     []ack
		accepted int64
		cursors  = map[string]int64{}
		kinds    = make([]byte, ingests+queries) // 'i' or 'q', by slot
		index    = make([]int, ingests+queries)  // ingest or query number
	)
	for slot, ni, nq := 0, 0, 0; slot < len(kinds); slot++ {
		if (slot+1)%(queryEvery+1) == 0 && nq < queries {
			kinds[slot], index[slot] = 'q', nq
			nq++
		} else {
			kinds[slot], index[slot] = 'i', ni
			ni++
		}
	}
	note := func(code int) {
		mu.Lock()
		run.status[code]++
		mu.Unlock()
	}
	fire := func(slot int) bool {
		n := index[slot]
		if kinds[slot] == 'i' {
			tenant := tenants[n%len(tenants)]
			resp, err := client.Post(base+tenant+"/txns", "application/json", bytes.NewReader(bodies[n]))
			if err != nil {
				note(0)
				return false
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			note(resp.StatusCode)
			if err != nil || resp.StatusCode != http.StatusAccepted {
				return false
			}
			var ar struct{ Accepted, Queue int }
			if err := json.Unmarshal(body, &ar); err != nil {
				return false
			}
			growth := int64(grid.GrowthPerStep)
			a := ack{tenant: tenant, at: time.Now(),
				target: svc.Steps() + (int64(ar.Queue)+growth-1)/growth}
			mu.Lock()
			acks = append(acks, a)
			accepted += int64(ar.Accepted)
			run.queueMax = max(run.queueMax, ar.Queue)
			mu.Unlock()
			return true
		}
		tenant := tenants[n%len(tenants)]
		mu.Lock()
		since := cursors[tenant]
		mu.Unlock()
		resp, err := client.Get(base + tenant + "/rules?since=" + strconv.FormatInt(since, 10))
		if err != nil {
			note(0)
			return false
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		note(resp.StatusCode)
		if err != nil || resp.StatusCode != http.StatusOK {
			return false
		}
		var rr struct{ Epoch int64 }
		if err := json.Unmarshal(body, &rr); err != nil {
			return false
		}
		mu.Lock()
		if rr.Epoch < since {
			run.problems = append(run.problems, fmt.Sprintf("tenant %s: cursor epoch went back from %d to %d", tenant, since, rr.Epoch))
		}
		cursors[tenant] = max(cursors[tenant], rr.Epoch)
		mu.Unlock()
		return true
	}

	stopPoll := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		if !traced {
			return
		}
		for {
			select {
			case <-stopPoll:
				return
			case <-time.After(100 * time.Millisecond):
				run.inflightMax = max(run.inflightMax, healthField(handler, "inflight_bytes"))
			}
		}
	}()

	var gs *goSample
	if traced {
		gs = startGoSample()
	}
	svc.Start()
	start := time.Now().Add(10 * time.Millisecond)
	steps0 := svc.Steps()
	shots := openLoop(start, len(kinds), time.Second*queryEvery/(ingestRate*(queryEvery+1)), workers, fire)
	end := time.Now()
	mined := svc.Steps() - steps0
	run.start, run.span = start, end.Sub(start)
	var rates []float64
	puts := rs.putEvents()
	for w := 0; w < windows; w++ {
		from := start.Add(run.span * time.Duration(w) / windows)
		if r, ok := stepRate(puts, from, from.Add(run.span/windows)); ok {
			rates = append(rates, r)
		}
	}
	if len(rates) > 0 {
		run.stepsPerS = median(rates)
	} else {
		run.stepsPerS = float64(mined) / run.span.Seconds()
	}
	if gs != nil {
		run.goStats = gs.finish(int(mined))
	}
	close(stopPoll)
	<-polled

	for slot, s := range shots {
		run.attempted++
		if !s.ok {
			run.failed++
		}
		run.late = append(run.late, s.late())
		x := timed{at: s.due, d: s.latency(reqTimeout)}
		if kinds[slot] == 'i' {
			run.ingest = append(run.ingest, x)
		} else {
			run.query = append(run.query, x)
		}
	}

	// Every acknowledged batch must reach a published rule set: keep
	// mining until each is attributed to a Put.
	var missing int
	for deadline := time.Now().Add(drainLimit); ; time.Sleep(100 * time.Millisecond) {
		run.lags, missing = publishLags(acks, rs.putEvents())
		if missing == 0 || time.Now().After(deadline) {
			break
		}
	}
	run.scraped = scrapeMetrics(handler)
	srv.Close()
	<-served
	transport.CloseIdleConnections()
	if err := svc.Close(); err != nil {
		run.problems = append(run.problems, "service close: "+err.Error())
	}
	os.RemoveAll(dir)

	if missing > 0 {
		run.problems = append(run.problems, fmt.Sprintf("%d acknowledged batches never reached a published rule set", missing))
	}
	for code, n := range run.status {
		if code >= 500 {
			run.problems = append(run.problems, fmt.Sprintf("%d responses with status %d", n, code))
		}
	}
	if got := int64(run.scraped["service_ingest_txns_total"]); got != accepted {
		run.problems = append(run.problems, fmt.Sprintf("202s accepted %d transactions, server counted %d", accepted, got))
	}
	if late := percentile(durationsMS(run.late), 99); late > float64(maxLateP99)/float64(time.Millisecond) {
		run.problems = append(run.problems, fmt.Sprintf("generator ran %.1f ms late at p99 (limit %v): run invalid", late, maxLateP99))
	}
	return run, nil
}

// scrapeMetrics reads /metrics through the handler and sums every
// sample per metric name (across label sets).
func scrapeMetrics(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil || math.IsNaN(v) {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		out[name] += v
	}
	return out
}

// healthField reads one numeric field of /healthz through the handler.
func healthField(h http.Handler, field string) float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var body map[string]any
	if json.Unmarshal(rec.Body.Bytes(), &body) != nil {
		return 0
	}
	v, _ := body[field].(float64)
	return v
}
