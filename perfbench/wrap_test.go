package main

import (
	"testing"

	"secmr"
	"secmr/internal/arm"
	"secmr/internal/core"
	"secmr/internal/homo"
	"secmr/internal/majorityrule"
	"secmr/internal/shamir"
	"secmr/internal/sim"
)

// optional lists which optional engine interfaces a node implements.
func optional(n sim.Node) [3]bool {
	_, j := n.(sim.NeighborJoiner)
	_, r := n.(sim.Rejoiner)
	_, c := n.(sim.TraceClocked)
	return [3]bool{j, r, c}
}

func TestWrappersKeepEveryOptionalInterface(t *testing.T) {
	db := makeDB(200, 1)
	th := arm.Thresholds{MinFreq: 0.1, MinConf: 0.5}
	scheme := shamir.MustNew(shamir.Params{K: 2, N: 3, W: 1})
	rec := newRecorder(numOps)

	ts, err := wrapScheme(scheme, rec)
	if err != nil {
		t.Fatal(err)
	}
	var s homo.Scheme = ts
	if _, ok := s.(homo.BatchScheme); !ok {
		t.Error("traced scheme lost homo.BatchScheme: homo.AddVec would take its serial path")
	}
	if _, ok := s.(homo.Adopter); !ok {
		t.Error("traced scheme lost homo.Adopter")
	}
	if _, ok := s.(homo.WireCiphertext); !ok {
		t.Error("traced scheme lost homo.WireCiphertext")
	}
	if _, err := wrapScheme(homo.NewPlain(96), rec); err == nil {
		t.Error("a scheme without batch ops was wrapped; the wrapper would add capabilities")
	}

	secure := core.NewResourceFeed(0, core.Config{Th: th, Universe: db.Items(), K: 1}, s, db, nil, nil)
	plain := majorityrule.NewResourceFeed(0, majorityrule.Config{Th: th, Universe: db.Items()}, db, nil)
	for _, m := range []miner{secure, plain} {
		w, err := wrapNode(m, "layer", rec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := optional(w), optional(m); got != want {
			t.Errorf("%T: wrapper implements %v, resource %v", m, got, want)
		}
	}
}

// The traced assembly must rebuild exactly the grid the facade builds.
func TestTracedAssemblyMatchesTheFacade(t *testing.T) {
	shapes := map[string]mineShape{
		"shamir": {grid: secmr.GridConfig{Algorithm: secmr.AlgorithmSecure, Crypto: secmr.CryptoShamir,
			Resources: 6, K: 3, MinFreq: 0.08, MinConf: 0.65, MaxRuleItems: 2, ScanBudget: 100,
			CandidateEvery: 5}, txns: 600, steps: 25},
		"majority": {grid: secmr.GridConfig{Algorithm: secmr.AlgorithmPlain, Resources: 12, K: 10,
			MinFreq: 0.08, MinConf: 0.65, MaxRuleItems: 2, ScanBudget: 100, CandidateEvery: 5},
			txns: 600, steps: 20},
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			f, err := runFacade(shape, 7, 8)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runTraced(shape, 7, 8, len(f.steps))
			if err != nil {
				t.Fatal(err)
			}
			if err := parity(f, tr); err != nil {
				t.Fatal(err)
			}
			if f.stats.EngineSent == 0 {
				t.Fatal("the grid sent no messages; the comparison is vacuous")
			}
			calls, _ := tr.rec.layerTotals()
			if calls["sim.step"] != int64(shape.steps) {
				t.Errorf("%d sim.step spans for %d steps", calls["sim.step"], shape.steps)
			}
		})
	}
}
